# Build file of the benchmark package.
#
# run.py configures the repository's top-level project with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so the benchmark links the real pgcn_* libraries built with the
# repository's real flags (LTO, SIMD backends, generated version
# header). CMake includes this file right after the top-level
# project() call, before those targets and flags exist, so the target
# definitions are deferred to the end of the top-level CMakeLists.txt.
include_guard(GLOBAL)

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
    add_library(perfbench_lib STATIC
        ${PERFBENCH_DIR}/src/harness.cpp
        ${PERFBENCH_DIR}/src/workloads.cpp)
    target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR}/src)
    target_link_libraries(perfbench_lib PUBLIC pgcn_core PRIVATE pgcn_warnings)

    add_executable(pgcn_perfbench ${PERFBENCH_DIR}/src/main.cpp)
    target_link_libraries(pgcn_perfbench PRIVATE perfbench_lib pgcn_warnings)

    add_executable(perfbench_tests ${PERFBENCH_DIR}/tests/test_perfbench.cpp)
    target_link_libraries(perfbench_tests
        PRIVATE perfbench_lib GTest::gtest_main pgcn_warnings)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL perfbench_add_targets)
