# `manetsim run` on a spec whose "trace" path cannot be opened must exit 2
# with a diagnostic located at the "trace" key, before anything runs.
#   cmake -DMANETSIM=<binary> -DWORKDIR=<scratch dir> -P unopenable_trace_test.cmake
set(spec "${WORKDIR}/unopenable_trace.json")
set(trace "${WORKDIR}/no-such-dir/run.tr")
file(REMOVE_RECURSE "${WORKDIR}/no-such-dir")
file(WRITE "${spec}" "{\"name\": \"unopenable_trace\",\n \"base\": {\"nodes\": 4, \"duration_s\": 30,\n  \"trace\": \"${trace}\"}}\n")
execute_process(COMMAND ${MANETSIM} run ${spec} --seeds=1 --out-dir=${WORKDIR}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exit ${code}, expected 2\n${out}${err}")
endif()
set(want "${spec}:3: trace: cannot open \"${trace}\": No such file or directory")
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected \"${want}\" on stderr, got:\n${out}${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "ran before rejecting the trace path:\n${out}")
endif()
