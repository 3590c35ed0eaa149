# Integration test: a run whose duality gap goes NaN stops at that epoch,
# exits with the divergence code (3), names the epoch, and writes no --save
# model.  TPA-SCD on the Titan X (48-block window) at lambda 1e-5 diverges
# on 2048 x 4096 within 5 epochs.
set(model ${WORK_DIR}/diverged.tpam)
file(REMOVE ${model})
execute_process(
  COMMAND ${TRAIN_BIN} --generate webspam --examples 2048 --features 4096
          --lambda 1e-5 --solver tpa-titanx --epochs 5 --target-gap 0
          --seed 1 --save ${model}
  RESULT_VARIABLE train_result
  ERROR_VARIABLE train_error)
if(NOT train_result EQUAL 3)
  message(FATAL_ERROR "diverged run exited ${train_result}, expected 3")
endif()
if(NOT train_error MATCHES "error: training diverged at epoch [1-5] ")
  message(FATAL_ERROR "diverged run did not name its epoch: ${train_error}")
endif()
if(EXISTS ${model})
  message(FATAL_ERROR "diverged run wrote its model to ${model}")
endif()
