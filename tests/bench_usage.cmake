# Every paper-figure program under bench/ refuses a misspelled option: exit
# 2 naming it, nothing on stdout, before any campaign or simulation work
# (the short timeout fails a program that ignores the typo and runs).
function(expect_usage_error program option)
  execute_process(COMMAND ${BENCH_DIR}/${program} ${option} 1 TIMEOUT 20
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${program} ${option} 1\n${out}\n${err}")
  endif()
  if(NOT "${err}" MATCHES "unknown option ${option}")
    message(FATAL_ERROR "error lacks '${option}': ${program} ${option} 1\n${err}")
  endif()
  if(NOT "${out}" STREQUAL "")
    message(FATAL_ERROR "work started: ${program} ${option} 1\n${out}")
  endif()
endfunction()

foreach(program fig3_binary_benchmarks fig4_multiclass fig5_real_apps ablation_attention
                ablation_features ablation_kernel_vs_flat extension_regression)
  expect_usage_error(${program} --richnes)
endforeach()
expect_usage_error(table1_io500_matrix --repeat)
expect_usage_error(phase_sweep --jobz)
# The programs that take no options refuse every one.
foreach(program fig1_enzo_interference table2_server_metrics ablation_server_cache)
  expect_usage_error(${program} --jobs)
endforeach()
