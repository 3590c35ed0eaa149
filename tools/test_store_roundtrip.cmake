# Integration test for the out-of-core store: a run streamed from disk
# must be bit-identical to the same run over in-memory shards, and a
# killed-and-resumed streamed run must reproduce the uninterrupted one.
# Six CLI steps on the same generated dataset (criteo-like, 6 shards):
#   1. tpascd_shard --generate               -> store on disk
#   2. tpascd_shard --verify                 -> every shard checksums clean
#   3. train --store (disk)                  -> store.tpam
#   4. train --stream-shards (memory, sync)  -> memory.tpam  == store.tpam
#   5. both arms again with --stream-threads 3 --precision fp16
#                                            -> store_fp16_t3.tpam
#                                               == memory_fp16_t3.tpam
#                                               != store_fp32_t3.tpam
#   6. train --store with mid-epoch checkpoints, then --resume
#                                            -> store_resumed.tpam == store.tpam
set(common --generate criteo --examples 1536 --seed 7)
set(train_common ${common} --lambda 1e-3 --epochs 6 --target-gap 0)
execute_process(
  COMMAND ${SHARD_BIN} ${common} --shards 6
          --out ${WORK_DIR}/store_rt --name criteo
  RESULT_VARIABLE shard_result)
if(NOT shard_result EQUAL 0)
  message(FATAL_ERROR "store conversion failed: ${shard_result}")
endif()
execute_process(
  COMMAND ${SHARD_BIN} --verify ${WORK_DIR}/store_rt/criteo.manifest
  RESULT_VARIABLE verify_result)
if(NOT verify_result EQUAL 0)
  message(FATAL_ERROR "store verification failed: ${verify_result}")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common}
          --store ${WORK_DIR}/store_rt/criteo.manifest
          --save ${WORK_DIR}/store.tpam
  RESULT_VARIABLE store_result)
if(NOT store_result EQUAL 0)
  message(FATAL_ERROR "streamed (disk) run failed: ${store_result}")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common} --stream-shards 6 --sync-prefetch
          --save ${WORK_DIR}/memory.tpam
  RESULT_VARIABLE memory_result)
if(NOT memory_result EQUAL 0)
  message(FATAL_ERROR "in-memory comparison run failed: ${memory_result}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/store.tpam ${WORK_DIR}/memory.tpam
  RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
          "streamed model differs from the in-memory shards model")
endif()
# fp16 shared vectors in the replicated sweeps: the streamed and in-memory
# arms still agree bit for bit, and the flag takes effect (the model is not
# the fp32 one).
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common} --stream-threads 3 --precision fp16
          --store ${WORK_DIR}/store_rt/criteo.manifest
          --save ${WORK_DIR}/store_fp16_t3.tpam
  RESULT_VARIABLE store_fp16_result)
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common} --stream-threads 3 --precision fp16
          --stream-shards 6 --sync-prefetch
          --save ${WORK_DIR}/memory_fp16_t3.tpam
  RESULT_VARIABLE memory_fp16_result)
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common} --stream-threads 3
          --store ${WORK_DIR}/store_rt/criteo.manifest
          --save ${WORK_DIR}/store_fp32_t3.tpam
  RESULT_VARIABLE store_fp32_result)
if(NOT store_fp16_result EQUAL 0 OR NOT memory_fp16_result EQUAL 0
   OR NOT store_fp32_result EQUAL 0)
  message(FATAL_ERROR "3-thread streamed runs failed: ${store_fp16_result} "
                      "${memory_fp16_result} ${store_fp32_result}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/store_fp16_t3.tpam ${WORK_DIR}/memory_fp16_t3.tpam
  RESULT_VARIABLE fp16_diff)
if(NOT fp16_diff EQUAL 0)
  message(FATAL_ERROR
          "fp16 streamed model differs from the in-memory shards model")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/store_fp16_t3.tpam ${WORK_DIR}/store_fp32_t3.tpam
  RESULT_VARIABLE precision_diff)
if(precision_diff EQUAL 0)
  message(FATAL_ERROR
          "--precision fp16 left the streamed model equal to the fp32 one")
endif()
# Interrupted run: stop after 3 epochs + a bit (checkpoint every 4 shards
# lands mid-epoch), then resume to epoch 6 and compare.
execute_process(
  COMMAND ${TRAIN_BIN} ${common} --lambda 1e-3 --epochs 3 --target-gap 0
          --store ${WORK_DIR}/store_rt/criteo.manifest
          --checkpoint-every-shards 4 --checkpoint ${WORK_DIR}/stream.tpsc
  RESULT_VARIABLE half_result)
if(NOT half_result EQUAL 0)
  message(FATAL_ERROR "checkpointing streamed run failed: ${half_result}")
endif()
execute_process(
  COMMAND ${TRAIN_BIN} ${train_common}
          --store ${WORK_DIR}/store_rt/criteo.manifest
          --resume ${WORK_DIR}/stream.tpsc --save ${WORK_DIR}/store_resumed.tpam
  RESULT_VARIABLE resume_result)
if(NOT resume_result EQUAL 0)
  message(FATAL_ERROR "resumed streamed run failed: ${resume_result}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/store.tpam ${WORK_DIR}/store_resumed.tpam
  RESULT_VARIABLE resume_diff)
if(NOT resume_diff EQUAL 0)
  message(FATAL_ERROR
          "resumed streamed model differs from the uninterrupted run")
endif()
