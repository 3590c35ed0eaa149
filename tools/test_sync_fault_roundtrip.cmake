# Integration test: a killed-and-resumed *barrier* run with injected faults
# must reproduce the uninterrupted run exactly.  A barrier checkpoint leaves
# the run as it is and writes the control plane, the simulated clock and the
# permanent straggler's late delta in flight to the .async sidecar, so a
# resume replays the crash, its backoff and the late deltas.  Four CLI runs,
# same dataset:
#   1. straight 8-round run, checkpoints every 2     -> sfull.tpam
#   2. straight 8-round run, no checkpoints          -> snockpt.tpam
#   3. 4-round run writing checkpoints every 2       -> sresume.ckpt
#   4. --resume continuation to round 8              -> sresumed.tpam
# Checkpoints that change nothing and a bit-exact replay mean the three
# saved models are byte-identical.
set(common --generate webspam --examples 512 --features 1024 --workers 4
    --adaptive --target-gap 0
    --crash-worker 1 --crash-epoch 3 --stall-worker 2)

# Fails unless `output`'s fault log counts at least one of `what`.
function(require_nonzero output what)
  string(REGEX MATCH "([0-9]+) ${what}" match "${output}")
  if(NOT match OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "fault log counts no ${what}:\n${output}")
  endif()
endfunction()

execute_process(
  COMMAND ${TRAIN_BIN} ${common} --epochs 8 --checkpoint-every 2
          --checkpoint ${WORK_DIR}/sfull.ckpt --save ${WORK_DIR}/sfull.tpam
  RESULT_VARIABLE full_result
  OUTPUT_VARIABLE full_output)
if(NOT full_result EQUAL 0)
  message(FATAL_ERROR "uninterrupted faulted sync run failed: ${full_result}")
endif()
string(FIND "${full_output}" "1 crashes, 1 restarts" found)
if(found EQUAL -1)
  message(FATAL_ERROR "fault log missing the crash:\n${full_output}")
endif()
require_nonzero("${full_output}" "deadline misses")
require_nonzero("${full_output}" "late deltas")
execute_process(
  COMMAND ${TRAIN_BIN} ${common} --epochs 8 --save ${WORK_DIR}/snockpt.tpam
  RESULT_VARIABLE nockpt_result)
if(NOT nockpt_result EQUAL 0)
  message(FATAL_ERROR "faulted sync run without checkpoints failed: "
                      "${nockpt_result}")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} ${common} --epochs 4 --checkpoint-every 2
          --checkpoint ${WORK_DIR}/sresume.ckpt
  RESULT_VARIABLE half_result)
if(NOT half_result EQUAL 0)
  message(FATAL_ERROR "checkpointing faulted sync run failed: ${half_result}")
endif()
if(NOT EXISTS ${WORK_DIR}/sresume.ckpt.async)
  message(FATAL_ERROR "sync checkpoint sidecar (.async) was not written")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} ${common} --epochs 8 --checkpoint-every 2
          --checkpoint ${WORK_DIR}/sresume.ckpt
          --resume ${WORK_DIR}/sresume.ckpt --save ${WORK_DIR}/sresumed.tpam
  RESULT_VARIABLE resume_result
  OUTPUT_VARIABLE resume_output)
if(NOT resume_result EQUAL 0)
  message(FATAL_ERROR "resumed faulted sync run failed: ${resume_result}")
endif()
require_nonzero("${resume_output}" "late deltas")
foreach(model snockpt sresumed)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/sfull.tpam ${WORK_DIR}/${model}.tpam
    RESULT_VARIABLE diff_result)
  if(NOT diff_result EQUAL 0)
    message(FATAL_ERROR
            "${model}.tpam differs from the checkpointing straight run's model")
  endif()
endforeach()
