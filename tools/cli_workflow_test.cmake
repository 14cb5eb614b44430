# CTest script driving the full lra_cli workflow.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(mtx ${WORK_DIR}/cli_test.mtx)
set(fact ${WORK_DIR}/cli_test.fact)
set(trace ${WORK_DIR}/cli_test_trace.json)
set(report ${WORK_DIR}/cli_test_report.jsonl)
run(${LRA_CLI} generate --preset=M1 --scale=0.08 --out=${mtx})
run(${LRA_CLI} info --mtx=${mtx})
run(${LRA_CLI} approx --mtx=${mtx} --method=ilut --tau=1e-2 --out=${fact})
run(${LRA_CLI} verify --mtx=${mtx} --fact=${fact})

# Observability path: traced simulated-distributed run + JSONL report.
run(${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --trace=${trace}
    --report=${report})
foreach(f ${trace} ${report})
  if(NOT EXISTS ${f})
    message(FATAL_ERROR "expected output missing: ${f}")
  endif()
endforeach()
file(READ ${trace} trace_contents)
foreach(needle "\"traceEvents\"" "\"cat\":\"compute\"" "\"cat\":\"collective\"")
  string(FIND "${trace_contents}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "trace.json is missing ${needle}")
  endif()
endforeach()
file(STRINGS ${report} report_lines)
list(LENGTH report_lines nlines)
if(nlines LESS 3)
  message(FATAL_ERROR "report.jsonl has only ${nlines} lines")
endif()

# Fault-injection path: a benign plan must converge and print the fault
# summary line; a certain-flip plan must abort with a comm-fault status
# (the CLI still exits 0 — the status is the result, not an error).
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2
          "--faults=seed=3;delay=0.5:8;dup=0.3"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --faults (benign) failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${out}" "faults    : plan" found)
if(found EQUAL -1)
  message(FATAL_ERROR "benign fault run did not print the fault summary:\n${out}")
endif()
set(abort_trace ${WORK_DIR}/cli_test_abort_trace.json)
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --faults=flip=1
          --trace=${abort_trace}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --faults=flip=1 failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${out}" "comm-fault" found)
if(found EQUAL -1)
  message(FATAL_ERROR "flip=1 run did not report comm-fault:\n${out}")
endif()
# The aborted run must still flush a valid, analyzable trace: the profile
# analyzer re-reads it, rebuilds the DAG, and its conservation invariants
# must hold over the truncated [0, abort] timeline (exit 1 = violation).
if(NOT EXISTS ${abort_trace})
  message(FATAL_ERROR "aborted run did not flush its trace: ${abort_trace}")
endif()
file(READ ${abort_trace} abort_contents)
string(FIND "${abort_contents}" "\"traceEvents\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "aborted-run trace is not a Chrome trace:\n${abort_contents}")
endif()
run(${LRA_CLI} profile --trace=${abort_trace})

# Causal-profile path: --profile prints the attribution table and appends
# profile records to the report; the standalone analyzer reproduces the
# same profile from the trace file.
set(prof_report ${WORK_DIR}/cli_test_prof.jsonl)
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --profile
          --trace=${trace} --report=${prof_report}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --profile failed (${rc}):\n${out}\n${err}")
endif()
foreach(needle "conservation: ok" "what-if:" "critical path:")
  string(FIND "${out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "--profile output is missing \"${needle}\":\n${out}")
  endif()
endforeach()
file(READ ${prof_report} prof_contents)
foreach(needle "\"type\":\"profile\"" "\"type\":\"profile_rank\""
        "\"type\":\"profile_phase\"" "\"whatif\"")
  string(FIND "${prof_contents}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "profile report is missing ${needle}")
  endif()
endforeach()
run(${LRA_CLI} profile --trace=${trace} --report=${prof_report})

# Repro path: a passing oracle config exits 0 via both spellings.
set(repro ${WORK_DIR}/cli_test_repro.json)
file(WRITE ${repro} "{\"matrix\": \"M1\", \"scale\": 0.25, \"method\": \"lu_crtp\", \"tau\": 0.01, \"block_size\": 8, \"nranks\": 2, \"faults\": \"seed=5;dup=0.4;flip=1\"}\n")
run(${LRA_CLI} repro --file=${repro})
run(${LRA_CLI} --repro=${repro})

# Thread-count leg: the same approximation computed on 1 and on 4 pool
# workers must serialize to byte-identical factor files. randqb and lu cover
# the GEMM/SpMM-heavy and the Schur-update paths end to end; M2' at scale 0.3
# (600 x 600, ~37k nonzeros) is large enough that their kernels fork onto the
# pool instead of running inline.
set(mtx_threads ${WORK_DIR}/cli_test_threads.mtx)
run(${LRA_CLI} generate --preset=M2 --scale=0.3 --out=${mtx_threads})
foreach(method randqb lu)
  set(fact_t1 ${WORK_DIR}/cli_test_${method}_t1.fact)
  set(fact_t4 ${WORK_DIR}/cli_test_${method}_t4.fact)
  foreach(threads 1 4)
    run(${LRA_CLI} approx --mtx=${mtx_threads} --method=${method} --tau=1e-2
        --threads=${threads} --out=${fact_t${threads}})
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${fact_t1} ${fact_t4}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${method}: --threads=1 and --threads=4 produced different "
            "factor files (${fact_t1} vs ${fact_t4})")
  endif()
  file(REMOVE ${fact_t1} ${fact_t4})
endforeach()
file(REMOVE ${mtx_threads})

# An unknown subcommand is a usage error (exit 2), not a run. `tune` names
# the retired autotune sweep: the GEMM tile is fixed at compile time.
execute_process(
  COMMAND ${LRA_CLI} tune
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "lra_cli tune exited ${rc}, expected 2:\n${out}\n${err}")
endif()
string(FIND "${err}" "usage: lra_cli <" found)
if(found EQUAL -1)
  message(FATAL_ERROR "lra_cli tune did not print the usage line:\n${err}")
endif()

# `--kernel-variant` names the retired runtime switch between kernel
# contracts: it is an unknown flag now (exit 2, naming it), not a run.
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2
          --kernel-variant=simd-strict
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "--kernel-variant exited ${rc}, expected 2:\n${out}\n${err}")
endif()
string(FIND "${err}" "unknown flag --kernel-variant" found)
if(found EQUAL -1)
  message(FATAL_ERROR "--kernel-variant was not named as unknown:\n${err}")
endif()

# A flag the subcommand never reads is an error naming it, not a silent
# default: a typo of --tau, and --comm-algo, which no longer exists (the
# simulated network has one collective schedule).
foreach(flag tua=1e-9 comm-algo=ring)
  execute_process(
    COMMAND ${LRA_CLI} approx --mtx=${mtx} --np=2 --${flag}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--${flag} exited ${rc}, expected 2:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "unknown flag --${name}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "--${flag} was not named as unknown:\n${err}")
  endif()
endforeach()

# A numeric value must parse completely: 0.05x is not run as 0.05, and abc
# is not a bare "stoll" error. Both exit 2 naming the flag and the value.
foreach(cmd "generate;--preset=M1;--scale=0.05x;--out=${WORK_DIR}/cli_test_bad.mtx"
            "approx;--mtx=${mtx};--k=abc")
  execute_process(COMMAND ${LRA_CLI} ${cmd}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(GET cmd 2 bad)
  string(REGEX REPLACE "^--([^=]*)=(.*)$" "--\\1: '\\2'" named "${bad}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad} exited ${rc}, expected 2:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "invalid value for ${named}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${bad} did not name the flag and value:\n${err}")
  endif()
endforeach()
if(EXISTS ${WORK_DIR}/cli_test_bad.mtx)
  message(FATAL_ERROR "generate --scale=0.05x wrote a matrix")
endif()

# verify checks the factors against the matrix: LU and QB factors of the
# 120 x 120 M1' do not verify against the 160 x 160 M2' (exit 1, no crash,
# no error figure).
set(other ${WORK_DIR}/cli_test_other.mtx)
set(qb_fact ${WORK_DIR}/cli_test_qb.fact)
run(${LRA_CLI} generate --preset=M2 --scale=0.08 --out=${other})
run(${LRA_CLI} approx --mtx=${mtx} --method=randqb --tau=1e-2 --out=${qb_fact})
foreach(f ${fact} ${qb_fact})
  execute_process(
    COMMAND ${LRA_CLI} verify --mtx=${other} --fact=${f}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "verify of ${f} against ${other} exited ${rc}, "
                        "expected 1:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "factors approximate a" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "verify did not report the shape mismatch:\n${err}")
  endif()
endforeach()
file(REMOVE ${other} ${qb_fact})

# --threads=0 must not be UB: the CLI warns on stderr and runs on 1 worker.
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --threads=0 --out=${fact}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --threads=0 failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${err}" "falling back to 1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "--threads=0 did not warn on stderr; got:\n${err}")
endif()
string(FIND "${out}" "threads   : 1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "--threads=0 did not report 1 worker; got:\n${out}")
endif()

file(REMOVE ${mtx} ${fact} ${trace} ${report} ${repro} ${abort_trace}
     ${prof_report})
