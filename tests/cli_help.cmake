# Runs `BINARY --help` and fails unless it exits 0 and its usage text lists
# every flag that SOURCE registers through CliParser::bind / choice /
# multi_option.
#
#   cmake -DBINARY=path/to/binary -DSOURCE=path/to/main.cpp -P cli_help.cmake
execute_process(COMMAND ${BINARY} --help
                RESULT_VARIABLE status OUTPUT_VARIABLE usage ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} --help exited with ${status}:\n${errors}")
endif()

file(READ ${SOURCE} source)
string(REGEX MATCHALL "\\.(bind|choice|multi_option)\\([ \n]*\"[a-z0-9-]+\"" calls "${source}")
if(NOT calls)
  message(FATAL_ERROR "${SOURCE} binds no flags")
endif()
foreach(call IN LISTS calls)
  string(REGEX REPLACE ".*\"([a-z0-9-]+)\"$" "\\1" flag "${call}")
  if(NOT usage MATCHES "\n  --${flag}[ \n]")
    message(FATAL_ERROR "${BINARY} --help does not list --${flag}:\n${usage}")
  endif()
endforeach()
