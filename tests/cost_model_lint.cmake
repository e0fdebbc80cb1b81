# Cost-model lint, alongside label_lint.cmake and deprecation_lint.cmake.
#
# The virtual-clock price of serving work lives in one file,
# src/core/iteration_cost.cc (core::IterationCost). Every scheduler — the
# continuous batcher, the window batcher, the fleet replica, the router's
# admission check and the fleet_sim DES twin — calls it instead of pricing
# work itself; copies of the formula drift apart (they did: the router's
# admission estimate once priced neither the prompt nor speculation).
#
# This script fails when any other file under src/ multiplies by
# per_token_s, prefill_token_s, or spec_draft_cost_factor(...). Comments are
# stripped and whitespace collapsed first, so prose and line breaks neither
# trip nor hide a match. Tests are out of scope: their hand-written
# expected values are independent oracles.
#
# Run as: cmake -DREPO_DIR=<repo> -P cost_model_lint.cmake
if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "cost_model_lint: pass -DREPO_DIR=<repo>")
endif()

set(_owner "${REPO_DIR}/src/core/iteration_cost.cc")
set(_consts "(per_token_s|prefill_token_s)")
set(_qual "([A-Za-z0-9_]+(\\.|->|::))*")
set(_patterns
  # constant on the left:      vs.per_token_s * x
  "[^A-Za-z0-9_]${_consts} ?\\*"
  # constant on the right:     x * vs.per_token_s,  x *= o.prefill_token_s
  "\\*=? ?\\(?${_qual}${_consts}([^A-Za-z0-9_]|$)"
  # draft factor on the right: x * RaggedDecoder::spec_draft_cost_factor(...)
  "\\*=? ?\\(?${_qual}spec_draft_cost_factor ?\\("
  # draft factor on the left:  spec_draft_cost_factor(o, n) * x
  "spec_draft_cost_factor ?\\([^()]*(\\([^()]*\\)[^()]*)*\\) ?\\*"
)

file(GLOB_RECURSE _sources "${REPO_DIR}/src/*.cc" "${REPO_DIR}/src/*.h")
set(_bad "")
foreach(_src ${_sources})
  if(_src STREQUAL _owner)
    continue()
  endif()
  file(READ "${_src}" _code)
  string(REGEX REPLACE "/\\*[^*]*\\*+([^/*][^*]*\\*+)*/" " " _code "${_code}")
  string(REGEX REPLACE "//[^\n]*" "" _code "${_code}")
  string(REGEX REPLACE "[ \t\r\n]+" " " _code "${_code}")
  foreach(_pattern ${_patterns})
    string(REGEX MATCH "${_pattern}" _hit "${_code}")
    if(_hit)
      file(RELATIVE_PATH _rel "${REPO_DIR}" "${_src}")
      list(APPEND _bad "${_rel} ('${_hit}')")
    endif()
  endforeach()
endforeach()

if(_bad)
  message(FATAL_ERROR
      "cost_model_lint: virtual-service price arithmetic outside "
      "src/core/iteration_cost.cc — call core::IterationCost (admit_s, "
      "step, estimate_s) instead of multiplying the VirtualServiceModel "
      "constants or the draft cost factor yourself. Offending files: ${_bad}")
endif()
message(STATUS "cost_model_lint: price arithmetic lives in iteration_cost.cc OK")
