# Integration test: train two models, serve the first under a 10k-request
# replay, hot-reload the second mid-stream, and check the stats snapshot.
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 512 --features 1024
          --epochs 10 --save ${WORK_DIR}/serve_v1.tpam
  RESULT_VARIABLE train1_result)
if(NOT train1_result EQUAL 0)
  message(FATAL_ERROR "training v1 failed: ${train1_result}")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 512 --features 1024
          --epochs 10 --lambda 0.1 --save ${WORK_DIR}/serve_v2.tpam
  RESULT_VARIABLE train2_result)
if(NOT train2_result EQUAL 0)
  message(FATAL_ERROR "training v2 failed: ${train2_result}")
endif()

execute_process(
  COMMAND ${SERVE_BIN} --model ${WORK_DIR}/serve_v1.tpam
          --reload ${WORK_DIR}/serve_v2.tpam
          --generate webspam --examples 512 --features 1024
          --requests 10000 --batch 32 --threads 4
  RESULT_VARIABLE serve_result
  OUTPUT_VARIABLE serve_output
  ERROR_VARIABLE serve_stderr)
if(NOT serve_result EQUAL 0)
  message(FATAL_ERROR "serve run failed: ${serve_result}\n${serve_stderr}")
endif()
foreach(needle "serving model v1" "hot-reloaded model v2" "stats: served"
        "req/s")
  string(FIND "${serve_output}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "serve output missing \"${needle}\":\n${serve_output}")
  endif()
endforeach()

# Unknown --log values must still serve, after one warning naming the value.
execute_process(
  COMMAND ${SERVE_BIN} --model ${WORK_DIR}/serve_v1.tpam
          --generate webspam --examples 512 --features 1024
          --requests 100 --log bogus
  RESULT_VARIABLE log_result
  OUTPUT_VARIABLE log_output
  ERROR_VARIABLE log_stderr)
if(NOT log_result EQUAL 0)
  message(FATAL_ERROR "serve with bad --log failed: ${log_result}")
endif()
string(FIND "${log_stderr}" "unknown log level \"bogus\"" warn_found)
if(warn_found EQUAL -1)
  message(FATAL_ERROR "missing unknown-log-level warning:\n${log_stderr}")
endif()
