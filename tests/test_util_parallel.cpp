// parallel_chunks: every index exactly once, and a body's exception
// reaches the caller as the same exception at every thread count.
#include "pmtree/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmtree {
namespace {

TEST(ParallelChunks, VisitsEveryIndexOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t grain : {1u, 3u, 64u}) {
      std::vector<std::atomic<int>> visits(200);
      parallel_chunks(visits.size(), threads, grain,
                      [&](unsigned tid, std::uint64_t begin, std::uint64_t end) {
                        EXPECT_LT(tid, threads);
                        for (std::uint64_t i = begin; i < end; ++i) {
                          visits[i].fetch_add(1);
                        }
                      });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i << " threads "
                                       << threads << " grain " << grain;
      }
    }
  }
}

TEST(ParallelChunks, RethrowsTheLowestThrowingIndexAtEveryThreadCount) {
  // Two throwing indices, in chunks far apart and adjacent. A 1-thread run
  // throws the lower one; so must every thread count, whichever chunk
  // happens to throw first in time.
  struct Case {
    std::uint64_t low, high, grain;
  };
  for (const Case c : {Case{3, 90, 1}, Case{41, 42, 1}, Case{17, 150, 8},
                       Case{150, 151, 4}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (int repeat = 0; repeat < 20; ++repeat) {
        std::string caught;
        try {
          parallel_chunks(
              200, threads, c.grain,
              [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t i = begin; i < end; ++i) {
                  if (i == c.low || i == c.high) {
                    throw std::runtime_error("index " + std::to_string(i));
                  }
                }
              });
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
        ASSERT_EQ(caught, "index " + std::to_string(c.low))
            << "threads " << threads << " grain " << c.grain;
      }
    }
  }
}

}  // namespace
}  // namespace pmtree
