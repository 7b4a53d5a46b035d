// Tests of the benchmark's own output checks (src/checks.hpp): the checks
// must accept right answers and count a wrong one as a failed operation.
#include <gtest/gtest.h>

#include <vector>

#include "checks.hpp"
#include "gala/graph/csr.hpp"

namespace perfbench {
namespace {

// Two triangles {0,1,2} and {3,4,5} joined by the edge {2,3}.
Csr two_triangles() {
  gala::graph::GraphBuilder b(6);
  for (auto [u, v] : {std::pair{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}}) {
    b.add_edge(u, v, 1.0);
  }
  return copy_csr(b.build());
}

const std::vector<cid_t> kSplit = {0, 0, 0, 1, 1, 1};

TEST(ChecksTest, ModularityOfTwoTrianglesIsFiveFourteenths) {
  const Csr g = two_triangles();
  EXPECT_DOUBLE_EQ(total_weight(g.view()), 7.0);
  EXPECT_NEAR(modularity(g.view(), kSplit), 5.0 / 14.0, 1e-15);
  EXPECT_NEAR(modularity(g.view(), std::vector<cid_t>(6, 0)), 0.0, 1e-15);
}

TEST(ChecksTest, SelfLoopCountsTwiceInDegreeAndInside) {
  gala::graph::GraphBuilder b(2);
  b.add_edge(0, 0, 1.0);
  b.add_edge(0, 1, 1.0);
  const Csr g = copy_csr(b.build());
  // 2m = 4; one community holds everything, so Q = 4/4 - 1 = 0.
  EXPECT_DOUBLE_EQ(total_weight(g.view()), 2.0);
  EXPECT_NEAR(modularity(g.view(), std::vector<cid_t>{0, 0}), 0.0, 1e-15);
  // Apart: in = {2, 0}, tot = {3, 1}: 2/4 - 9/16 - 1/16 = -1/8.
  EXPECT_NEAR(modularity(g.view(), std::vector<cid_t>{0, 1}), -0.125, 1e-15);
}

TEST(ChecksTest, RightPartitionPasses) {
  const Csr g = two_triangles();
  const std::vector<cid_t> relabelled = {1, 1, 1, 0, 0, 0};
  Tally tally;
  tally.record("detect", check_partition(relabelled, 5.0 / 14.0, {g.view(), kSplit, kSplit, 0.99, 0.3}));
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 0u);
  EXPECT_TRUE(tally.correct());
}

TEST(ChecksTest, PerturbedPartitionIsAFailedOperation) {
  const Csr g = two_triangles();
  std::vector<cid_t> perturbed = kSplit;
  perturbed[2] = 1;  // vertex 2 crosses the bridge
  Tally tally;
  // The program claims the right Q for a wrong partition ...
  const Verdict claimed = check_partition(perturbed, 5.0 / 14.0, {g.view(), kSplit, {}, 0, 0});
  EXPECT_EQ(claimed.check, "modularity");
  tally.record("detect", claimed);
  // ... or reports the perturbed partition's own Q, which parity catches.
  const double q = modularity(g.view(), perturbed);
  const Verdict honest = check_partition(perturbed, q, {g.view(), kSplit, {}, 0, 0});
  EXPECT_EQ(honest.check, "engine-parity");
  tally.record("detect", honest);
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_FALSE(tally.correct());
}

TEST(ChecksTest, SparseIdsAndLowNmiFail) {
  const Csr g = two_triangles();
  EXPECT_EQ(check_partition(std::vector<cid_t>{0, 0, 0, 2, 2, 2}, 5.0 / 14.0, {g.view(), {}, {}, 0, 0}).check,
            "dense-ids");
  const std::vector<cid_t> truth = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(check_partition(kSplit, 5.0 / 14.0, {g.view(), {}, truth, 0.9, 0}).check, "nmi");
  EXPECT_NEAR(nmi(kSplit, kSplit), 1.0, 1e-12);
}

TEST(ChecksTest, OracleGapFailsButKeepsTheRunCorrect) {
  const Csr g = two_triangles();
  Tally tally;
  const Verdict v = check_partition(kSplit, 5.0 / 14.0, {g.view(), kSplit, {}, 0, 0.5});
  EXPECT_EQ(v.check, kOracleGapCheck);
  tally.record("detect", v);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_TRUE(tally.correct());
}

TEST(ChecksTest, RightQueryAnswersPass) {
  const auto ref = make_epoch_ref({0, 0, 0, 1, 1, 1}, 10);
  const std::vector<vid_t> vs = {0, 3, 2, 5};
  LabelBijection bijection;
  EXPECT_EQ(bijection.check(vs, std::vector<cid_t>{7, 4, 7, 4}, ref->labels), "");
  EXPECT_EQ(check_sizes(*ref, vs, std::vector<vid_t>{3, 3, 3, 3}), "");
  EXPECT_EQ(check_top_k(*ref, std::vector<cid_t>{1, 0}, std::vector<vid_t>{3, 3}), "");
  const auto next = make_epoch_ref({0, 0, 1, 1, 1, 1}, 10);
  EXPECT_EQ(check_diff(*ref, *next, std::vector<vid_t>{0, 1, 2, 3, 4, 5}), "");
  const auto same = make_epoch_ref({1, 1, 1, 0, 0, 0}, 10);
  EXPECT_EQ(check_diff(*ref, *same, std::vector<vid_t>{}), "");
}

TEST(ChecksTest, WrongQueryAnswerIsAFailedOperation) {
  const auto ref = make_epoch_ref({0, 0, 0, 1, 1, 1}, 10);
  const std::vector<vid_t> vs = {0, 3, 2};
  LabelBijection bijection;
  // Vertex 3 is in the other community but gets vertex 0's answer.
  EXPECT_NE(bijection.check(vs, std::vector<cid_t>{7, 7, 7}, ref->labels), "");
  // Vertices 0 and 2 share a community but get different answers.
  EXPECT_NE(bijection.check(vs, std::vector<cid_t>{7, 4, 5}, ref->labels), "");
  EXPECT_NE(check_sizes(*ref, vs, std::vector<vid_t>{3, 3, 2}), "");
  EXPECT_NE(check_top_k(*ref, std::vector<cid_t>{0, 1}, std::vector<vid_t>{3, 2}), "");
  const auto next = make_epoch_ref({0, 0, 1, 1, 1, 1}, 10);
  EXPECT_NE(check_diff(*ref, *next, std::vector<vid_t>{2}), "");

  Tally tally;
  Verdict v;
  v.require(bijection.check(vs, std::vector<cid_t>{7, 7, 7}, ref->labels).empty(),
            "query-answer", "wrong lookup");
  tally.record("reads", v);
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_FALSE(tally.correct());
}

}  // namespace
}  // namespace perfbench
