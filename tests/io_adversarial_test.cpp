// Adversarial graph inputs: truncated binaries, lying size fields, malformed
// edge-list lines. Every case must surface as a structured gala::Error that
// names the file (and line, for text inputs) — never a crash, never an
// unbounded allocation, never silently-wrong data.
#include "gala/graph/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gala/common/error.hpp"
#include "temp_dir.hpp"
#include "test_util.hpp"

namespace gala::graph {
namespace {

class AdversarialIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return tmp_.path(name); }

  std::string write_text(const std::string& name, const std::string& content) {
    const std::string p = path(name);
    std::ofstream out(p);
    out << content;
    return p;
  }

  /// Expects `fn` to throw gala::Error whose message contains every needle.
  template <typename Fn>
  void expect_error(Fn&& fn, std::initializer_list<std::string> needles) {
    try {
      fn();
      FAIL() << "expected gala::Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(what.find(needle), std::string::npos)
            << "missing '" << needle << "' in: " << what;
      }
    }
  }

  gala::testing::TestTempDir tmp_;
};

// ---- binary format ----------------------------------------------------------

TEST_F(AdversarialIoTest, BinaryRoundTripStillWorks) {
  const auto g = gala::testing::two_triangles();
  const std::string p = path("good.galabin");
  save_binary(g, p);
  const Graph back = load_binary(p);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST_F(AdversarialIoTest, TruncatedBinaryIsStructuredError) {
  const auto g = gala::testing::small_planted();
  const std::string p = path("truncated.galabin");
  save_binary(g, p);
  const auto full = std::filesystem::file_size(p);
  // Chop the file at several depths: inside the weights array, inside the
  // adjacency, inside the offsets, and inside the header. Depending on where
  // the cut lands the loader reports either a short read ("truncated") or an
  // array length that no longer fits the file ("corrupt") — both structured.
  for (const auto keep : {full - 9, full / 2, full / 8, std::uintmax_t{11}, std::uintmax_t{3}}) {
    std::filesystem::resize_file(p, keep);
    expect_error([&] { load_binary(p); }, {"binary graph"});
  }
}

TEST_F(AdversarialIoTest, BadMagicIsRejected) {
  const std::string p = path("notagraph.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t junk = 0xdeadbeefdeadbeefULL;
  out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  out.close();
  expect_error([&] { load_binary(p); }, {"bad magic", p});
}

TEST_F(AdversarialIoTest, OverflowingSizeFieldDoesNotAllocate) {
  // A size field claiming 2^60 elements must become a bounded structured
  // error, not a std::bad_alloc from a ~16 EiB vector resize.
  const std::string p = path("liar.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  const std::uint64_t huge = 1ULL << 60;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  out.close();
  expect_error([&] { load_binary(p); }, {"corrupt binary graph"});
}

TEST_F(AdversarialIoTest, ZeroVertexBinaryIsRejected) {
  const std::string p = path("empty.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  const std::uint64_t zero = 0;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  for (int i = 0; i < 3; ++i) out.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  out.close();
  expect_error([&] { load_binary(p); }, {"inconsistent binary graph", p});
}

TEST_F(AdversarialIoTest, CorruptOffsetsAreRejected) {
  const std::string p = path("offsets.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  // offsets = [0, 5] but only 1 adjacency entry: offsets.back() mismatch.
  const std::uint64_t offsets_len = 2;
  const std::uint64_t offs[2] = {0, 5};
  const std::uint64_t adj_len = 1;
  const std::uint32_t adj[1] = {0};
  const std::uint64_t w_len = 1;
  const double w[1] = {1.0};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&offsets_len), sizeof(offsets_len));
  out.write(reinterpret_cast<const char*>(offs), sizeof(offs));
  out.write(reinterpret_cast<const char*>(&adj_len), sizeof(adj_len));
  out.write(reinterpret_cast<const char*>(adj), sizeof(adj));
  out.write(reinterpret_cast<const char*>(&w_len), sizeof(w_len));
  out.write(reinterpret_cast<const char*>(w), sizeof(w));
  out.close();
  expect_error([&] { load_binary(p); }, {"corrupt offsets", p});
}

TEST_F(AdversarialIoTest, OutOfRangeNeighbourIdIsRejected) {
  const std::string p = path("badneighbour.galabin");
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  // 2 vertices, one edge 0 -> 9 (vertex 9 does not exist).
  const std::uint64_t offsets_len = 3;
  const std::uint64_t offs[3] = {0, 1, 2};
  const std::uint64_t adj_len = 2;
  const std::uint32_t adj[2] = {9, 0};
  const std::uint64_t w_len = 2;
  const double w[2] = {1.0, 1.0};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&offsets_len), sizeof(offsets_len));
  out.write(reinterpret_cast<const char*>(offs), sizeof(offs));
  out.write(reinterpret_cast<const char*>(&adj_len), sizeof(adj_len));
  out.write(reinterpret_cast<const char*>(adj), sizeof(adj));
  out.write(reinterpret_cast<const char*>(&w_len), sizeof(w_len));
  out.write(reinterpret_cast<const char*>(w), sizeof(w));
  out.close();
  expect_error([&] { load_binary(p); }, {"out of range", p});
}

/// Writes a binary graph file from raw CSR arrays (no validation).
std::string write_csr(const std::string& p, const std::vector<std::uint64_t>& offsets,
                      const std::vector<std::uint32_t>& adj, const std::vector<double>& w) {
  std::ofstream out(p, std::ios::binary);
  const std::uint64_t magic = 0x47414c41475246ULL;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const auto write_array = [&out](const auto& values) {
    const std::uint64_t len = values.size();
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(len * sizeof(values[0])));
  };
  write_array(offsets);
  write_array(adj);
  write_array(w);
  return p;
}

TEST_F(AdversarialIoTest, LowerEntryWithoutMirrorIsRejected) {
  // Rows 0: {} and 1: {0}: the entry (1, 0) has no (0, 1); the old loader
  // kept only upper entries and silently dropped the edge.
  const std::string p = write_csr(path("lower_only.galabin"), {0, 0, 1}, {0}, {1.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "(1, 0) has no mirror entry (0, 1)"});
}

TEST_F(AdversarialIoTest, MirrorWeightMismatchIsRejected) {
  // Edge {0, 1} weighs 2 one way and 3 the other; the old loader kept 2.
  const std::string p = write_csr(path("weights.galabin"), {0, 1, 2}, {1, 0}, {2.0, 3.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "edge {0, 1} weighs 2 in row 0 but 3 in row 1"});
  // Weights one ulp apart must print differently, not both as 64.9757.
  const double w = 64.9757;
  const std::string q = write_csr(path("ulp.galabin"), {0, 1, 2}, {1, 0},
                                  {w, std::nextafter(w, 100.0)});
  try {
    load_binary(q);
    FAIL() << "expected gala::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    const auto value_after = [&what](const std::string& marker) {
      const auto at = what.find(marker);
      if (at == std::string::npos) return std::string();
      const auto from = at + marker.size();
      return what.substr(from, what.find(' ', from) - from);
    };
    const std::string in_row_0 = value_after(" weighs "), in_row_1 = value_after(" but ");
    ASSERT_FALSE(in_row_0.empty() || in_row_1.empty()) << what;
    EXPECT_NE(in_row_0, in_row_1) << what;
  }
}

TEST_F(AdversarialIoTest, DuplicateRowEntryIsRejected) {
  // Rows 0: {1, 1}, 1: {0, 0}: symmetric, but each row names its neighbour
  // twice; the old loader summed the pair into one edge of weight 2.
  const std::string p = write_csr(path("duplicate.galabin"), {0, 2, 4}, {1, 1, 0, 0},
                                  {1.0, 1.0, 1.0, 1.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "row 0 lists neighbour 1 twice"});
}

TEST_F(AdversarialIoTest, NonPositiveBinaryWeightIsRejected) {
  const std::string p = write_csr(path("zero.galabin"), {0, 1, 2}, {1, 0}, {0.0, 0.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "entry (0, 1) has non-positive weight 0"});
}

TEST_F(AdversarialIoTest, LeftoverUpperEntryIsRejected) {
  // Rows 0: {1, 2}, 1: {0}, 2: {}: the entry (0, 2) is never mirrored.
  const std::string p = write_csr(path("upper_only.galabin"), {0, 2, 3, 3}, {1, 2, 0},
                                  {1.0, 1.0, 1.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "(0, 2) has no mirror entry (2, 0)"});
  // Rows 0: {1, 2}, 1: {}, 2: {0}: row 2's entry skips past the unmatched
  // (0, 1), which is reported there.
  const std::string q = write_csr(path("skipped.galabin"), {0, 2, 2, 3}, {1, 2, 0},
                                  {1.0, 1.0, 1.0});
  expect_error([&] { load_binary(q); }, {q + ": ", "(0, 1) has no mirror entry (1, 0)"});
}

TEST_F(AdversarialIoTest, UnsortedRowIsRejected) {
  const std::string p = write_csr(path("unsorted.galabin"), {0, 2, 3, 4}, {2, 1, 0, 0},
                                  {1.0, 1.0, 1.0, 1.0});
  expect_error([&] { load_binary(p); }, {p + ": ", "row 0 is not sorted"});
}

TEST_F(AdversarialIoTest, SymmetricCsrWithSelfLoopLoads) {
  // Rows 0: {0, 1}, 1: {0, 2}, 2: {1}, with a self-loop on 0.
  const std::string p = write_csr(path("ok.galabin"), {0, 2, 4, 5}, {0, 1, 0, 2, 1},
                                  {4.0, 1.5, 1.5, 2.0, 2.0});
  const Graph g = load_binary(p);
  g.validate();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.self_loop(0), 4.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 7.5);
}

TEST_F(AdversarialIoTest, MissingBinaryFileIsStructuredError) {
  expect_error([&] { load_binary(path("nope.galabin")); }, {"cannot open binary graph"});
}

// ---- edge-list format --------------------------------------------------------

TEST_F(AdversarialIoTest, MalformedEdgeLineNamesFileAndLine) {
  const std::string p = write_text("bad.txt", "0 1\n1 2\nnot an edge\n2 3\n");
  expect_error([&] { load_edge_list(p); }, {"malformed edge", p + ":3"});
}

TEST_F(AdversarialIoTest, MissingEndpointIsMalformed) {
  const std::string p = write_text("half.txt", "0 1\n7\n");
  expect_error([&] { load_edge_list(p); }, {"malformed edge", p + ":2"});
}

TEST_F(AdversarialIoTest, VertexIdOverflowIsRejected) {
  // 4294967295 == kInvalidVid is reserved; anything >= it must be rejected
  // before it wraps into a valid-looking id.
  const std::string p = write_text("overflow.txt", "0 4294967295\n");
  expect_error([&] { load_edge_list(p); }, {"vertex id overflow", p + ":1"});
  const std::string p2 = write_text("overflow2.txt", "0 1\n18446744073709551615 2\n");
  expect_error([&] { load_edge_list(p2); }, {"vertex id overflow", p2 + ":2"});
}

TEST_F(AdversarialIoTest, NegativeIdIsRejectedNotWrapped) {
  // A negative id wraps modulo 2^64 under unsigned extraction; the overflow
  // guard must catch the wrapped value rather than mint a huge vertex id.
  const std::string p = write_text("negative.txt", "0 -5\n");
  expect_error([&] { load_edge_list(p); }, {p + ":1"});
}

TEST_F(AdversarialIoTest, NonPositiveWeightIsRejected) {
  const std::string p = write_text("zeroweight.txt", "0 1 0\n");
  expect_error([&] { load_edge_list(p); }, {"non-positive weight", p + ":1"});
  const std::string p2 = write_text("negweight.txt", "0 1 -3.5\n");
  expect_error([&] { load_edge_list(p2); }, {"non-positive weight", p2 + ":1"});
}

TEST_F(AdversarialIoTest, NumVerticesSmallerThanMaxIdIsRejected) {
  const std::string p = write_text("undersized.txt", "0 1\n5 6\n");
  expect_error([&] { load_edge_list(p, /*num_vertices=*/3); }, {"<= max id"});
}

TEST_F(AdversarialIoTest, MissingEdgeListIsStructuredError) {
  expect_error([&] { load_edge_list(path("absent.txt")); }, {"cannot open edge list"});
}

TEST_F(AdversarialIoTest, CommentsAndBlankLinesStillFine) {
  const std::string p =
      write_text("ok.txt", "# header\n\n% matrix-market style comment\n0 1\n1 2\n0 2 2.5\n");
  const Graph g = load_edge_list(p);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

}  // namespace
}  // namespace gala::graph
