# Run one command and check what it left behind.
#
#   cmake -DOUT=<dir> [-DRC=<exit code, default 0>] [-DEXPECT=<regex>]
#         [-DFILES=<a,b,...>] -P run_expect.cmake -- <command> [args...]
#
# The command runs in OUT (emptied first). The test fails unless it
# exits with RC, its stdout+stderr match EXPECT, and every file in
# FILES exists in OUT; a file ending in .json must also parse.

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
if(NOT DEFINED RC)
    set(RC 0)
endif()

set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_dashes TRUE)
    endif()
endforeach()

execute_process(COMMAND ${cmd} WORKING_DIRECTORY ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL RC)
    message(FATAL_ERROR "exit ${rc}, expected ${RC}:\n${out}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
string(REPLACE "," ";" files "${FILES}")
foreach(name IN LISTS files)
    if(NOT EXISTS ${OUT}/${name})
        message(FATAL_ERROR "${name} was not written:\n${out}")
    endif()
    if(name MATCHES "\\.json$")
        file(READ ${OUT}/${name} text)
        string(JSON type ERROR_VARIABLE bad TYPE "${text}")
        if(bad)
            message(FATAL_ERROR "${name} does not parse: ${bad}")
        endif()
    endif()
endforeach()
