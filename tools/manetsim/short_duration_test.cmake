# `manetsim run SPEC --duration=5` must exit 2 with a diagnostic that names
# the broken contract: the spec's traffic starts after the shortened run.
#   cmake -DMANETSIM=<binary> -DSPEC=<scenario.json> -P short_duration_test.cmake
execute_process(COMMAND ${MANETSIM} run ${SPEC} --duration=5 --seeds=1
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exit ${code}, expected 2\n${out}${err}")
endif()
string(FIND "${err}" "traffic starts at" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no \"traffic starts at\" diagnostic:\n${out}${err}")
endif()
