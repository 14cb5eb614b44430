# CTest script: every example given in EXES (comma-separated paths) must
# refuse a flag it never reads (a typo of --tau) with exit status 2 and an
# error naming the flag, instead of running on the defaults.
string(REPLACE "," ";" exes "${EXES}")
foreach(exe ${exes})
  execute_process(COMMAND ${exe} --tua=1e-9
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${exe} --tua=1e-9 exited ${rc}, expected 2:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "unknown flag --tua" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${exe} did not name --tua as unknown:\n${err}")
  endif()
endforeach()
