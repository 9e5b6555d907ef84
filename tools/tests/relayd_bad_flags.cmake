# Runs graphene_relayd with each malformed flag value and fails unless every
# run exits with status 2 (usage error) instead of serving.
#   cmake -DRELAYD=<path to graphene_relayd> -P relayd_bad_flags.cmake
# Arguments within a case are separated by '|'.
set(cases
  "--port|70000"
  "--port|-1"
  "--port|abc"
  "--items|abc|--port|0"
  "--items|12x|--port|0"
  "--seed|0xZZ|--port|0"
  "--max-conns|4294967296|--port|0")
foreach(args IN LISTS cases)
  string(REPLACE "|" ";" argv "${args}")
  execute_process(COMMAND "${RELAYD}" ${argv}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
  if(NOT rc EQUAL 2)
    string(REPLACE "|" " " shown "${args}")
    message(FATAL_ERROR "graphene_relayd ${shown}: exit '${rc}', want 2")
  endif()
endforeach()
