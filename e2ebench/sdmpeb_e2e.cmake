# Build file of the end-to-end benchmark binary. It is injected into the
# repository's own CMake project, so the libraries it links build exactly as
# the repository builds them:
#
#   cmake -S . -B .bench_build/e2e -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#         -DCMAKE_PROJECT_sdmpeb_INCLUDE=$PWD/e2ebench/sdmpeb_e2e.cmake
#   cmake --build .bench_build/e2e --target sdmpeb_e2e
#
# (e2ebench/run.py does this.) The include runs right after project(), so
# the library targets are linked by name before they are defined and the
# language standard is set on the target itself.
add_executable(sdmpeb_e2e
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/bench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/surrogate_infer.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/rigorous_solve.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/train_step.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/serve_open_loop.cpp
)
target_compile_features(sdmpeb_e2e PRIVATE cxx_std_20)
# The repository root, for bench/report_json.hpp.
target_include_directories(sdmpeb_e2e PRIVATE ${CMAKE_SOURCE_DIR})
target_compile_options(sdmpeb_e2e PRIVATE -Wall -Wextra)
target_link_libraries(sdmpeb_e2e PRIVATE sdmpeb_serve sdmpeb_eval)
