# Drives the qif CLI's lane/topology surface end to end:
#   - `--lanes N` prints the same trace fingerprint for every valid N
#     (including on a custom --topology shape), the CLI-level face of the
#     lane engine's bit-identity contract;
#   - invalid partitions (--lanes 0, --lanes > OSS count, malformed
#     --topology) are rejected with a non-zero exit and a clear message.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_ok outvar)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

function(run_fail_matching pattern)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "command unexpectedly succeeded: ${ARGN}\n${out}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "command failed without '${pattern}': ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(extract_fp outvar text)
  if(NOT "${text}" MATCHES "solo trace fp: ([0-9a-f]+)")
    message(FATAL_ERROR "no trace fingerprint in output:\n${text}")
  endif()
  set(${outvar} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# Fingerprint equality across lane counts on the testbed shape (3 OSS
# groups, so 1..3 data lanes are all valid).
run_ok(out1 ${QIF_CLI} run ior-easy-write --scale 0.25 --lanes 1)
extract_fp(fp1 "${out1}")
foreach(lanes 2 3)
  run_ok(outn ${QIF_CLI} run ior-easy-write --scale 0.25 --lanes ${lanes})
  extract_fp(fpn "${outn}")
  if(NOT fpn STREQUAL fp1)
    message(FATAL_ERROR "--lanes ${lanes} fingerprint ${fpn} != --lanes 1 ${fp1}")
  endif()
endforeach()

# Same contract on a custom topology (8 clients x 4 OSS x 2 OSTs), for a
# data-bound and a metadata-bound target.
run_ok(w1 ${QIF_CLI} run ior-easy-write --scale 0.25 --topology 8x4x2 --lanes 1)
run_ok(w4 ${QIF_CLI} run ior-easy-write --scale 0.25 --topology 8x4x2 --lanes 4)
extract_fp(wfp1 "${w1}")
extract_fp(wfp4 "${w4}")
if(NOT wfp4 STREQUAL wfp1)
  message(FATAL_ERROR "ior-easy-write 8x4x2: --lanes 4 fp ${wfp4} != --lanes 1 fp ${wfp1}")
endif()
run_ok(t1 ${QIF_CLI} run mdt-easy-write --scale 0.25 --topology 8x4x2 --lanes 1)
run_ok(t4 ${QIF_CLI} run mdt-easy-write --scale 0.25 --topology 8x4x2 --lanes 4)
extract_fp(tfp1 "${t1}")
extract_fp(tfp4 "${t4}")
if(NOT tfp4 STREQUAL tfp1)
  message(FATAL_ERROR "topology 8x4x2: --lanes 4 fp ${tfp4} != --lanes 1 fp ${tfp1}")
endif()

# Invalid partitions are rejected with a clear error.
run_fail_matching("need at least 1 data lane" ${QIF_CLI} run ior-easy-write --lanes 0)
run_fail_matching("only 3 OSS groups" ${QIF_CLI} run ior-easy-write --lanes 4)
run_fail_matching("bad --topology" ${QIF_CLI} run ior-easy-write --topology 7x3)

# dump-trace accepts the same knobs and produces identical traces.
run_ok(ignored ${QIF_CLI} dump-trace ior-easy-write --scale 0.25 --lanes 2
       --out lanes2.dxt)
run_ok(ignored ${QIF_CLI} dump-trace ior-easy-write --scale 0.25 --lanes 1
       --out lanes1.dxt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/lanes1.dxt ${WORK_DIR}/lanes2.dxt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "dump-trace output differs between --lanes 1 and --lanes 2")
endif()
