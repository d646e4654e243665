# bench/data_plane refuses a misspelled, valueless or malformed option:
# exit 2 naming it, before any campaign work starts (a campaign leg
# announces itself on stderr with "building campaign dataset").
function(expect_usage_error pattern)
  execute_process(COMMAND ${DATA_PLANE} ${ARGN} TIMEOUT 120
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: data_plane ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "error lacks '${pattern}': data_plane ${ARGN}\n${err}")
  endif()
  if("${err}" MATCHES "building campaign" OR NOT "${out}" STREQUAL "")
    message(FATAL_ERROR "campaign work started: data_plane ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

expect_usage_error("unknown option --richnes" --richnes 0.5)
expect_usage_error("unknown option --richnes" --richness 0.05 --richnes 0.5)
expect_usage_error("option --richness needs a value" --richness)
expect_usage_error("option --streaming-rows needs a value" --streaming-rows --richness 1)
expect_usage_error("bad --richness value 'abc'" --richness abc)
expect_usage_error("bad --streaming-rows value '-5'" --streaming-rows -5)
expect_usage_error("bad --richness value '0': not above 0" --richness 1 --richness 0)
