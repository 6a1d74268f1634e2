# Byte pins of the front end's deterministic output files.
#
#   cmake -DPIN=<cli_single|cli_matrix|fig11> -DCLI=<sdpcm_cli>
#         -DBENCH=<bench_fig11_performance> -DOUT=<dir>
#         -P output_pins.cmake
#
# Runs one tool with its observer outputs on and compares the SHA-256 of
# every deterministic file with the value recorded before the flag and
# output layer was shared between sdpcm_cli and the benches. The run
# report's "build" and "host" blocks name the compiler, build type and
# host, so they are cut before hashing; everything else is hashed as
# written. Profile outputs hold host times: they are checked only for
# existing and parsing.

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

function(run_tool)
    execute_process(COMMAND ${ARGN} --quiet
                    WORKING_DIRECTORY ${OUT}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ARGN} exited ${rc}:\n${err}")
    endif()
endfunction()

function(check_pin name expected)
    if(NOT EXISTS ${OUT}/${name})
        message(SEND_ERROR "${name} was not written")
        return()
    endif()
    file(READ ${OUT}/${name} text)
    if(name MATCHES "^report")
        string(REGEX REPLACE "\n  \"(build|host)\": {[^}]*}," ""
               text "${text}")
    endif()
    string(SHA256 got "${text}")
    if(NOT got STREQUAL expected)
        message(SEND_ERROR "${name}: sha256 ${got}, pinned ${expected}")
    endif()
endfunction()

function(check_profile json folded)
    if(NOT EXISTS ${OUT}/${json} OR NOT EXISTS ${OUT}/${folded})
        message(SEND_ERROR "${json} or ${folded} was not written")
        return()
    endif()
    file(READ ${OUT}/${json} text)
    string(JSON kind ERROR_VARIABLE bad GET "${text}" kind)
    if(bad OR NOT kind STREQUAL "sdpcm_profile")
        message(SEND_ERROR "${json} is not a profile document: ${bad}")
    endif()
    file(STRINGS ${OUT}/${folded} lines)
    if(NOT lines)
        message(SEND_ERROR "${folded} is empty")
    endif()
    foreach(line IN LISTS lines)
        if(NOT line MATCHES "^[^ ]+ [0-9]+$")
            message(SEND_ERROR "${folded}: not a folded stack: ${line}")
        endif()
    endforeach()
endfunction()

set(storm --scheme=sdpcm --workload=qstress --refs=600 --cores=2 --wc=1
    --inject=stuck=0.3,ecp=2,wd=0.02,seed=5)

if(PIN STREQUAL "cli_single")
    run_tool(${CLI} ${storm} --spans=spans.json
             --spans-folded=spans.folded --wd-ledger=ledger.json
             --report=report.json)
    check_pin(spans.json
        953682c1b690b55abdd3c45e12b586f808fcc16a558c9ba3eb3fe1f97a193292)
    check_pin(spans.folded
        fe763de93cb41dfb153ff6eee11edf799eb71f63a51755a5c11002f20ebdeb5e)
    check_pin(ledger.json
        bfe1433385f1b10dde34286360ee18ebea9f0b228510ea3de04d6f888d764837)
    check_pin(report.json
        f5da6d43538cea0b552321eb0e111e2ccea9f2a772e3bba2502061d87c4597d1)
    run_tool(${CLI} ${storm} --profile=profile.json
             --profile-folded=profile.folded)
    check_profile(profile.json profile.folded)
elseif(PIN STREQUAL "cli_matrix")
    run_tool(${CLI} --scheme=sdpcm --workload=all --refs=300 --cores=2
             --jobs=2 --spans=spans.json --spans-folded=spans.folded
             --wd-ledger=ledger.json)
    check_pin(spans.json
        2b44e0986866b4e1f92089db2c13157da0b93a867e7c53ae74c3c38696cd678e)
    check_pin(spans.folded
        d776826019f8e79f8459c1f5444bdaa020ad27d363dc9c6b2980ef15464e0791)
    check_pin(ledger.json
        21b0f3454c43671683f3422506034f8c0ee68200f29db92c4b9f7972f302efb7)
    run_tool(${CLI} --scheme=sdpcm --workload=all --refs=300 --cores=2
             --jobs=2 --profile=profile.json
             --profile-folded=profile.folded)
    check_profile(profile.json profile.folded)
elseif(PIN STREQUAL "fig11")
    # config.jobs is in the report, so --jobs is fixed.
    run_tool(${BENCH} --refs=200 --cores=2 --jobs=2
             --spans-folded=spans.folded --report=report.json)
    check_pin(spans.folded
        98afc30f2df25080b6de1d780c19953cac5cb134beb0fc309d7b6c37588a20ec)
    check_pin(report.json
        2280eb16494e619e851fa9204e8c95dec7c5d414723212014e816319cb5c852d)
    run_tool(${BENCH} --refs=200 --cores=2 --jobs=2 --report=
             --profile=profile.json --profile-folded=profile.folded)
    check_profile(profile.json profile.folded)
else()
    message(FATAL_ERROR "unknown PIN '${PIN}'")
endif()
