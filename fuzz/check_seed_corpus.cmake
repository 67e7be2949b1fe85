# Staleness guard for the generated fuzz seeds (make_seed_corpus.cpp says
# which seeds and why). Regenerates them into a scratch directory and fails
# if any differs from the checked-in corpus, so a change to the sampler or
# to a persist format cannot leave the corpus stale. Run by the
# fuzz_seed_corpus_current ctest:
#
#   cmake -DGENERATOR=<make_seed_corpus> -DCORPUS=<tests/fuzz_corpus>
#         -DSCRATCH=<dir> -P check_seed_corpus.cmake
file(REMOVE_RECURSE "${SCRATCH}")
file(MAKE_DIRECTORY "${SCRATCH}/store_codec_fuzz" "${SCRATCH}/persist_fuzz")
execute_process(COMMAND "${GENERATOR}" "${SCRATCH}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "make_seed_corpus failed: ${status}")
endif()
file(GLOB_RECURSE seeds RELATIVE "${SCRATCH}" "${SCRATCH}/*")
if(NOT seeds)
  message(FATAL_ERROR "make_seed_corpus wrote no seeds")
endif()
set(stale "")
foreach(seed IN LISTS seeds)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${SCRATCH}/${seed}" "${CORPUS}/${seed}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND stale "${seed}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "stale fuzz seeds, regenerate them with "
                      "make_seed_corpus: ${stale}")
endif()
list(LENGTH seeds count)
message(STATUS "${count} generated seeds match tests/fuzz_corpus")
