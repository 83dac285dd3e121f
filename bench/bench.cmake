# Bench binaries — one per paper table/figure plus ablations.
#
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench contains only runnable executables:
#   for b in build/bench/*; do $b; done
# regenerates every table and figure.

set(NBWP_BENCH_TARGETS
  fig1_dense_mm
  fig3_cc
  fig4_cc_sensitivity
  fig5_spmm
  fig6_spmm_sensitivity
  fig7_randomness
  fig8_scalefree
  fig9_scalefree_sensitivity
  table1_summary
  table2_datasets
  fit_extrapolation
  ablate_identify
  ablate_schedulers
  ablate_sampling_method
  extra_energy
  extra_workloads
  ablate_objective)

foreach(target ${NBWP_BENCH_TARGETS})
  add_executable(${target} ${CMAKE_SOURCE_DIR}/bench/${target}.cpp)
  target_link_libraries(${target} PRIVATE nbwp::nbwp)
  target_include_directories(${target} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${target} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

if(benchmark_FOUND)
  add_executable(kernels_microbench ${CMAKE_SOURCE_DIR}/bench/kernels_microbench.cpp)
  target_link_libraries(kernels_microbench PRIVATE nbwp::nbwp benchmark::benchmark)
  set_target_properties(kernels_microbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endif()
