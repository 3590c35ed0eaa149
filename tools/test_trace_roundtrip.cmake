# Observability roundtrip: a distributed fault drill with --trace-out and
# --metrics-out must produce a Chrome trace carrying per-worker
# solve/reduce/broadcast spans, crash/restart instants, causal flow arrows
# and the attribution track, and a run report whose cluster.event.* counters
# agree with the fault log; a .csv trace-out must produce the gap-vs-time
# table.  The stalled worker guarantees a non-zero straggler_wait component.
# The drill's subject is tracing, so its workers run sequential SCD, which
# converges on its 85-86-row shards (TPA-SCD's 48-block window blows up
# there), and the run report's gap must fall.
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 256 --features 512
          --epochs 8 --target-gap 0 --workers 3 --solver seq
          --crash-worker 1 --crash-epoch 3
          --stall-worker 2 --stall-factor 4
          --trace-out ${WORK_DIR}/drill_trace.json
          --metrics-out ${WORK_DIR}/drill_metrics.jsonl
  RESULT_VARIABLE drill_result
  OUTPUT_VARIABLE drill_output
  ERROR_VARIABLE drill_stderr)
if(NOT drill_result EQUAL 0)
  message(FATAL_ERROR "fault drill failed: ${drill_result}\n${drill_stderr}")
endif()
foreach(needle "fault log: 1 crashes, 1 restarts"
        "Chrome trace" "written to" "run report written to")
  string(FIND "${drill_output}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "drill output missing \"${needle}\":\n${drill_output}")
  endif()
endforeach()

file(READ ${WORK_DIR}/drill_trace.json trace_json)
foreach(needle "\"traceEvents\"" "dist/local_solve" "dist/reduce"
        "dist/broadcast" "dist/straggler_wait" "dist/epoch"
        "\"crash\"" "\"restart\"" "dist/worker 1" "dist/master"
        "\"ph\": \"X\"" "\"ph\": \"i\""
        "\"ph\": \"s\"" "\"ph\": \"f\"" "\"bp\": \"e\""
        "flow/delta" "flow/model"
        "dist/attribution (sim)" "attr/round" "attr/compute"
        "attr/straggler_wait" "train/epoch" "train/gap_eval")
  string(FIND "${trace_json}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "Chrome trace missing ${needle}")
  endif()
endforeach()

file(READ ${WORK_DIR}/drill_metrics.jsonl metrics_jsonl)
foreach(needle "\"type\": \"meta\"" "\"tool\": \"tpascd_train\""
        "\"git_sha\"" "\"kernel_backend\"" "\"type\": \"point\""
        "\"kind\": \"crash\"" "\"kind\": \"restart\""
        "cluster.event.crash" "cluster.event.restart" "cluster.epochs"
        "train.gap_evals" "trace_events_dropped"
        "round.attr.total_seconds" "round.attr.compute_seconds"
        "round.attr.straggler_wait_seconds" "round.attr.rounds")
  string(FIND "${metrics_jsonl}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "run report missing ${needle}:\n${metrics_jsonl}")
  endif()
endforeach()

# The offline analyzer must reconstruct the attribution from the exported
# files and confirm the components sum to the round wall-time within 1%.
execute_process(
  COMMAND ${TRACEVIEW_BIN} --trace ${WORK_DIR}/drill_trace.json
          --metrics ${WORK_DIR}/drill_metrics.jsonl
          --check --max-residual 0.01
  RESULT_VARIABLE view_result
  OUTPUT_VARIABLE view_output
  ERROR_VARIABLE view_stderr)
if(NOT view_result EQUAL 0)
  message(FATAL_ERROR
          "traceview check failed: ${view_result}\n${view_output}\n${view_stderr}")
endif()
foreach(needle "per-round attribution" "per-worker utilization"
        "critical-path slices" "traceview checks passed")
  string(FIND "${view_output}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "traceview output missing \"${needle}\":\n${view_output}")
  endif()
endforeach()

# Diffing a report against itself is the degenerate base case: it must parse
# both sides and find zero changed metrics.
execute_process(
  COMMAND ${TRACEVIEW_BIN} --diff ${WORK_DIR}/drill_metrics.jsonl
          ${WORK_DIR}/drill_metrics.jsonl
  RESULT_VARIABLE diff_result
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_stderr)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR "traceview diff failed: ${diff_result}\n${diff_stderr}")
endif()
string(FIND "${diff_output}" "0 of " self_diff_found)
if(self_diff_found EQUAL -1)
  message(FATAL_ERROR "self-diff should change nothing:\n${diff_output}")
endif()
# The drill injects exactly one crash and sees exactly one restart; the
# counters must agree with the ConvergenceTrace event counts printed above.
# A cluster run shares the one run loop: with --target-gap 0 it counts
# every one of its 8 rounds and gaps.
foreach(needle "\"name\": \"cluster.event.crash\", \"value\": 1"
        "\"name\": \"cluster.event.restart\", \"value\": 1"
        "\"name\": \"train.epochs\", \"value\": 8"
        "\"name\": \"train.gap_evals\", \"value\": 8")
  string(FIND "${metrics_jsonl}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "counter mismatch, expected ${needle}:\n${metrics_jsonl}")
  endif()
endforeach()
# A drill whose model blows up must not pass on its spans alone: the last
# recorded gap must be below the first.
string(REGEX MATCHALL "\"type\": \"point\", \"epoch\": [0-9]+, \"gap\": [^,]+"
       gap_points "${metrics_jsonl}")
list(LENGTH gap_points gap_count)
if(gap_count LESS 2)
  message(FATAL_ERROR "run report holds ${gap_count} gap points:\n${metrics_jsonl}")
endif()
list(GET gap_points 0 first_point)
list(GET gap_points -1 last_point)
string(REGEX REPLACE ".*\"gap\": " "" first_gap "${first_point}")
string(REGEX REPLACE ".*\"gap\": " "" last_gap "${last_point}")
if(NOT last_gap LESS first_gap)
  message(FATAL_ERROR
          "drill did not converge: gap ${first_gap} -> ${last_gap}")
endif()

# CSV convergence trace from a single-worker run.
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 256 --features 512
          --epochs 5 --target-gap 0 --solver seq
          --trace-out ${WORK_DIR}/gap_trace.csv
  RESULT_VARIABLE csv_result
  OUTPUT_VARIABLE csv_output
  ERROR_VARIABLE csv_stderr)
if(NOT csv_result EQUAL 0)
  message(FATAL_ERROR "csv trace run failed: ${csv_result}\n${csv_stderr}")
endif()
file(READ ${WORK_DIR}/gap_trace.csv gap_csv)
string(FIND "${gap_csv}" "epoch,gap,sim_seconds,wall_seconds,gamma,contributors"
       header_found)
if(header_found EQUAL -1)
  message(FATAL_ERROR "csv trace missing header:\n${gap_csv}")
endif()
string(REGEX MATCHALL "\n5," final_row "${gap_csv}")
if(final_row STREQUAL "")
  message(FATAL_ERROR "csv trace missing epoch-5 row:\n${gap_csv}")
endif()

# Traced serve replay: batch/reload spans and the serving stats report, on
# a sequential model (TPA-SCD's window blows up on 256 rows too).
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 256 --features 512
          --epochs 5 --solver seq --save ${WORK_DIR}/trace_model.tpam
  RESULT_VARIABLE model_result)
if(NOT model_result EQUAL 0)
  message(FATAL_ERROR "model training failed: ${model_result}")
endif()
execute_process(
  COMMAND ${SERVE_BIN} --model ${WORK_DIR}/trace_model.tpam
          --generate webspam --examples 256 --features 512
          --requests 2000 --batch 32 --threads 2
          --trace-out ${WORK_DIR}/serve_trace.json
          --metrics-out ${WORK_DIR}/serve_metrics.jsonl
  RESULT_VARIABLE serve_result
  OUTPUT_VARIABLE serve_output
  ERROR_VARIABLE serve_stderr)
if(NOT serve_result EQUAL 0)
  message(FATAL_ERROR "traced serve failed: ${serve_result}\n${serve_stderr}")
endif()
file(READ ${WORK_DIR}/serve_trace.json serve_json)
foreach(needle "serve/batch" "serve/reload")
  string(FIND "${serve_json}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "serve trace missing ${needle}")
  endif()
endforeach()
file(READ ${WORK_DIR}/serve_metrics.jsonl serve_report)
foreach(needle "\"tool\": \"tpascd_serve\"" "\"type\": \"serve_stats\""
        "\"completed\": 2000" "\"p99_us\"")
  string(FIND "${serve_report}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "serve report missing ${needle}:\n${serve_report}")
  endif()
endforeach()
