// Checks a value computed by the running test against the value the same
// test computes under the scalar kernel table.
//
// simd::Active() resolves FBD_DISABLE_SIMD once per process, so the scalar
// side runs in a child: gtest's threadsafe death-test style re-executes this
// binary for the current test only, the child inherits FBD_DISABLE_SIMD=1,
// runs the test body up to the check, and prints its own `digest` to
// stderr; the parent matches that against its digest. When the parent
// already runs scalar kernels, both sides are scalar and the check still
// holds.
#ifndef FBDETECT_TESTS_SCALAR_RERUN_H_
#define FBDETECT_TESTS_SCALAR_RERUN_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace fbdetect {

// `digest` must hold only characters that are literal in a POSIX extended
// regular expression (letters, digits, '_', '=', ';', ' ').
inline void ExpectSameDigestWithScalarKernels(const std::string& digest) {
  const char* previous = std::getenv("FBD_DISABLE_SIMD");
  const std::string saved = previous != nullptr ? previous : "";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("FBD_DISABLE_SIMD", "1", /*overwrite=*/1);
  const std::string framed = "<" + digest + ">";
  EXPECT_EXIT(
      {
        std::fputs(framed.c_str(), stderr);
        std::fflush(stderr);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), framed)
      << "the scalar-kernel run computed a different digest";
  if (previous != nullptr) {
    ::setenv("FBD_DISABLE_SIMD", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("FBD_DISABLE_SIMD");
  }
}

}  // namespace fbdetect

#endif  // FBDETECT_TESTS_SCALAR_RERUN_H_
