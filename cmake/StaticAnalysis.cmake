# The `tidy` target: clang-tidy (configuration in .clang-tidy) plus cppcheck
# over the production sources.  Both tools are optional at configure time so
# the target always exists — on machines without them it prints what it
# skipped and exits 0; the CI lint job installs both, so findings still gate
# every push.
find_program(HINET_CLANG_TIDY NAMES clang-tidy)
find_program(HINET_RUN_CLANG_TIDY NAMES run-clang-tidy run-clang-tidy.py)
find_program(HINET_CPPCHECK NAMES cppcheck)

# The directories both tools analyze, listed explicitly so adding a
# subsystem is a reviewed decision rather than a glob accident.  Keep in
# sync with the layer table (tools/detlint/layers.cpp).
set(HINET_TIDY_DIRS
  src/util
  src/graph
  src/cluster
  src/sim
  src/baseline
  src/core
  src/analysis
  src/service
  tools)

set(_tidy_commands)
set(_tidy_sources)
set(_tidy_dir_paths)
foreach(_dir IN LISTS HINET_TIDY_DIRS)
  file(GLOB_RECURSE _dir_sources CONFIGURE_DEPENDS
    ${CMAKE_SOURCE_DIR}/${_dir}/*.cpp)
  list(APPEND _tidy_sources ${_dir_sources})
  list(APPEND _tidy_dir_paths ${CMAKE_SOURCE_DIR}/${_dir})
endforeach()

if(HINET_CLANG_TIDY)
  if(HINET_RUN_CLANG_TIDY)
    list(APPEND _tidy_commands
      COMMAND ${HINET_RUN_CLANG_TIDY} -quiet -p ${CMAKE_BINARY_DIR}
              "^${CMAKE_SOURCE_DIR}/(src|tools)/")
  else()
    list(APPEND _tidy_commands
      COMMAND ${HINET_CLANG_TIDY} -p ${CMAKE_BINARY_DIR} --quiet
              ${_tidy_sources})
  endif()
else()
  list(APPEND _tidy_commands
    COMMAND ${CMAKE_COMMAND} -E echo
            "tidy: clang-tidy not found, skipping (CI runs it)")
endif()

if(HINET_CPPCHECK)
  list(APPEND _tidy_commands
    COMMAND ${HINET_CPPCHECK}
            --enable=warning,performance,portability
            --std=c++20 --inline-suppr --error-exitcode=1 --quiet
            --suppressions-list=${CMAKE_SOURCE_DIR}/.cppcheck-suppressions
            -I ${CMAKE_SOURCE_DIR}/src -I ${CMAKE_SOURCE_DIR}/tools
            ${_tidy_dir_paths})
else()
  list(APPEND _tidy_commands
    COMMAND ${CMAKE_COMMAND} -E echo
            "tidy: cppcheck not found, skipping (CI runs it)")
endif()

add_custom_target(tidy
  ${_tidy_commands}
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  COMMENT "tidy: clang-tidy + cppcheck over src/ (incl. service) and tools/"
  VERBATIM)
