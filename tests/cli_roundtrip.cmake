# Drives the qif CLI through a full campaign -> train -> eval -> publish ->
# serve round trip, then checks that bad output paths, partial writes and
# mismatched models fail with exit 1 and an error naming the culprit, and
# that command lines the command table refuses (options a verb does not
# take, malformed or too-small numbers, missing required options or
# positionals) fail with exit 2 naming the fault.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()
function(run_fail_matching pattern)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "error lacks '${pattern}': ${ARGN}\n${err}")
  endif()
endfunction()
function(run_usage_error pattern)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "error lacks '${pattern}': ${ARGN}\n${err}")
  endif()
endfunction()
run(${QIF_CLI} run mdt-easy-write --noise ior-easy-write --instances 4 --scale 0.5)
# --stream-out emits per-case .qds shards + a .qdm manifest while the
# campaign runs, and exits non-zero unless the shards merge back
# byte-identically to the in-RAM dataset.
run(${QIF_CLI} campaign amrex --richness 0.5 --stream-out shards --out data.csv)
if(NOT EXISTS ${WORK_DIR}/shards/amrex.qdm)
  message(FATAL_ERROR "campaign --stream-out did not seal a manifest")
endif()
run(${QIF_CLI} dataset info shards/amrex.qdm)
# The .qifm model file is byte-identical across --jobs counts and between
# the in-RAM (CSV) and streaming (manifest) training paths.
run(${QIF_CLI} train --data data.csv --out model.qifm --epochs 20)
run(${QIF_CLI} train --data data.csv --out model_j2.qifm --epochs 20 --jobs 2)
run(${QIF_CLI} train --data shards/amrex.qdm --out model_qdm.qifm --epochs 20)
run(${CMAKE_COMMAND} -E compare_files model.qifm model_j2.qifm)
run(${CMAKE_COMMAND} -E compare_files model.qifm model_qdm.qifm)
run(${QIF_CLI} eval --data data.csv --model model.qifm)
# The streamed manifest feeds the chunked evaluator directly.
run(${QIF_CLI} eval --data shards/amrex.qdm --model model.qifm)
# The trained file is what the registry deploys.
run(${QIF_CLI} serve publish --model model.qifm --model-dir registry)
run(${QIF_CLI} serve verify --model-dir registry --requests 200)
# Batched replies equal the sync path for both synthetic architectures
# with two producers and several batch boundaries.
run(${QIF_CLI} serve verify --arch kernel --requests 400 --producers 2 --max-batch 8)
run(${QIF_CLI} serve verify --arch attention --requests 400 --producers 2 --max-batch 8)
run(${QIF_CLI} dump-trace openpmd --scale 0.5 --out trace.dxt)
if(NOT EXISTS ${WORK_DIR}/registry/v1.qifm OR NOT EXISTS ${WORK_DIR}/trace.dxt)
  message(FATAL_ERROR "CLI round trip did not produce its artifacts")
endif()

# Output files that cannot be opened or fully written are errors.
run_fail_matching("no_such_dir/m.qifm"
  ${QIF_CLI} train --data data.csv --out no_such_dir/m.qifm --epochs 1)
run_fail_matching("no_such_dir/t.dxt"
  ${QIF_CLI} dump-trace openpmd --scale 0.5 --out no_such_dir/t.dxt)
if(EXISTS /dev/full)
  run_fail_matching("/dev/full" ${QIF_CLI} train --data data.csv --out /dev/full --epochs 1)
  run_fail_matching("/dev/full" ${QIF_CLI} dump-trace openpmd --scale 0.5 --out /dev/full)
endif()
# A file that is not a model reports its path.
run_fail_matching("data.csv" ${QIF_CLI} eval --data data.csv --model data.csv)
# A model trained on fault features (7 x 40) refuses a healthy dataset
# (7 x 37) instead of reading past its rows.
run(${QIF_CLI} campaign amrex --richness 0.5 --faults slow:ost=0,start=2,dur=10,factor=4
    --out faulted.csv)
run(${QIF_CLI} train --data faulted.csv --out faulted.qifm --epochs 2)
run_fail_matching("37 features.*7 x 40"
  ${QIF_CLI} eval --data data.csv --model faulted.qifm)
run_fail_matching("37 features.*7 x 40"
  ${QIF_CLI} eval --data shards/amrex.qdm --model faulted.qifm)
# Labels outside the model's class count are refused with the offending
# row named, instead of indexing past the loss and confusion buffers: a
# 3-bin dataset (--bins 2,5) cannot train or evaluate a binary model.
run(${QIF_CLI} campaign amrex --richness 0.5 --bins 2,5 --out multi.csv)
run_fail_matching("train: row [0-9]+ has label 2, the model has 2 classes"
  ${QIF_CLI} train --data multi.csv --out bad.qifm --classes 2 --epochs 1)
run_fail_matching("evaluate: row [0-9]+ has label 2, the model has 2 classes"
  ${QIF_CLI} eval --data multi.csv --model model.qifm)
run_fail_matching("bad --bins '3'" ${QIF_CLI} campaign amrex --bins 3 --out bad.csv)

# Every verb refuses an option it does not take, naming it and the
# nearest option it does take, before doing any work.
run_usage_error("--mitigte.*did you mean --mitigate" ${QIF_CLI} run ior-easy-write --mitigte token)
run_usage_error("--lansx.*did you mean --lanes" ${QIF_CLI} run ior-easy-write --lansx 4)
run_usage_error("--richnes.*did you mean --richness"
  ${QIF_CLI} campaign amrex --richnes 0.5 --out bad.csv)
run_usage_error("--epoch.*did you mean --epochs"
  ${QIF_CLI} train --data data.csv --out bad.qifm --epoch 1)
run_usage_error("--modle.*did you mean --model" ${QIF_CLI} eval --data data.csv --modle model.qifm)
run_usage_error("--row.*did you mean --rows" ${QIF_CLI} dataset head data.csv --row 2)
run_usage_error("--scael.*did you mean --scale"
  ${QIF_CLI} dump-trace openpmd --scael 0.5 --out bad.dxt)
run_usage_error("--rank.*did you mean --ranks" ${QIF_CLI} workloads export ior-easy-write --rank 2)
run_usage_error("--producer.*did you mean --producers" ${QIF_CLI} serve bench --producer 2)
run_usage_error("--request.*did you mean --requests" ${QIF_CLI} serve verify --request 10)
run_usage_error("--model_dir.*did you mean --model-dir"
  ${QIF_CLI} serve publish --model model.qifm --model_dir registry)
run_usage_error("--modeldir.*did you mean --model-dir" ${QIF_CLI} serve versions --modeldir registry)
# A verb's options are its own: --sync belongs to `serve bench` only.
run_usage_error("--sync" ${QIF_CLI} serve verify --sync)
# A value option at the end of the line, or followed by another option,
# has no value.
run_usage_error("--faults needs a value" ${QIF_CLI} run ior-easy-write --faults)
run_usage_error("--out needs a value" ${QIF_CLI} dump-trace openpmd --out --scale 0.5)
# Numeric option values parse in full.
run_usage_error("--jobs.*two" ${QIF_CLI} train --data data.csv --out bad.qifm --jobs two)
run_usage_error("--richness.*abc" ${QIF_CLI} campaign amrex --richness abc --out bad.csv)
# A value below the option's declared minimum is refused, not clamped.
run_usage_error("bad --producers value '0'" ${QIF_CLI} serve bench --producers 0 --sync --requests 10)
run_usage_error("bad --rows-per-shard value '0'"
  ${QIF_CLI} dataset shard data.csv bad_shards --rows-per-shard 0)
run_usage_error("bad --ranks value '0'" ${QIF_CLI} workloads export ior-easy-write --ranks 0)
# A scale or richness must be above zero: 0 or a negative value is refused,
# not clamped to the smallest job.
run_usage_error("bad --scale value '0': not above 0" ${QIF_CLI} run ior-easy-write --scale 0)
run_usage_error("bad --scale value '-1': not above 0"
  ${QIF_CLI} workloads export ior-easy-write --scale -1)
run_usage_error("bad --richness value '0': not above 0"
  ${QIF_CLI} campaign amrex --richness 0 --out bad.csv)
# A negative noise count is refused before it reaches the simulator.
run_usage_error("bad --instances value '-2'"
  ${QIF_CLI} run ior-easy-write --noise ior-easy-read --instances -2)
# A sub-command takes only its own options.
run_usage_error("--out.*`qif workloads list`" ${QIF_CLI} workloads list --out zzz.qwp)
run_usage_error("--rows.*`qif dataset info`" ${QIF_CLI} dataset info data.csv --rows 5)
if(EXISTS ${WORK_DIR}/zzz.qwp)
  message(FATAL_ERROR "workloads list --out wrote a file")
endif()
# Required options and positionals come from the command table.
run_usage_error("missing required option --out" ${QIF_CLI} campaign amrex)
run_usage_error("`qif run` takes <target>" ${QIF_CLI} run)
# `qif` alone prints every command.
execute_process(COMMAND ${QIF_CLI} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 from bare qif, got ${rc}")
endif()
foreach(cmd "workloads" "workloads list" "workloads export" "workloads lint" "run" "campaign"
            "train" "eval" "dataset info" "dataset head" "dataset convert" "dataset shard"
            "dataset merge" "dump-trace" "serve bench" "serve verify" "serve publish"
            "serve versions")
  if(NOT "${err}" MATCHES "usage: qif ${cmd}")
    message(FATAL_ERROR "bare qif does not list `qif ${cmd}`:\n${err}")
  endif()
endforeach()
# ... and each option with its help line, default and minimum.
if(NOT "${err}" MATCHES "--producers N +producer threads \\(default 4, at least 1\\)")
  message(FATAL_ERROR "bare qif does not describe --producers:\n${err}")
endif()
