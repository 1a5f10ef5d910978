# Run ${BENCH} with the ;-list ${ARGS} and pass only if it exits with
# code 1 and prints a "fatal:" diagnostic (bench::runBenchMain's
# report of a ConfigError).
#
#   cmake -DBENCH=<binary> -DARGS="--flag;value" -P expect_fatal.cmake
execute_process(COMMAND ${BENCH} ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
        "expected exit code 1 from ${BENCH} ${ARGS}, got '${rc}'\n"
        "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "fatal:")
    message(FATAL_ERROR
        "no 'fatal:' diagnostic from ${BENCH} ${ARGS}\n${out}${err}")
endif()
