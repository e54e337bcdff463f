#include "pmtree/templates/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pmtree {
namespace {

TEST(SubtreeInstance, NodesAreBfsOrdered) {
  const SubtreeInstance s{v(1, 1), 7};
  const auto nodes = s.nodes();
  ASSERT_EQ(nodes.size(), 7u);
  EXPECT_EQ(nodes[0], v(1, 1));
  EXPECT_EQ(nodes[1], v(2, 2));
  EXPECT_EQ(nodes[2], v(3, 2));
  EXPECT_EQ(nodes[3], v(4, 3));
  EXPECT_EQ(nodes[6], v(7, 3));
  EXPECT_EQ(s.levels(), 3u);
}

TEST(SubtreeInstance, Fits) {
  const CompleteBinaryTree tree(4);
  EXPECT_TRUE((SubtreeInstance{v(0, 1), 7}.fits(tree)));
  EXPECT_FALSE((SubtreeInstance{v(0, 2), 7}.fits(tree)));  // would need level 4
  EXPECT_TRUE((SubtreeInstance{v(7, 3), 1}.fits(tree)));
}

TEST(LevelRunInstance, NodesLeftToRight) {
  const LevelRunInstance l{v(2, 3), 4};
  const auto nodes = l.nodes();
  ASSERT_EQ(nodes.size(), 4u);
  for (std::uint64_t t = 0; t < 4; ++t) EXPECT_EQ(nodes[t], v(2 + t, 3));
}

TEST(LevelRunInstance, Fits) {
  const CompleteBinaryTree tree(4);
  EXPECT_TRUE((LevelRunInstance{v(0, 3), 8}.fits(tree)));
  EXPECT_FALSE((LevelRunInstance{v(1, 3), 8}.fits(tree)));  // runs off the level
}

TEST(PathInstance, NodesBottomUp) {
  const PathInstance p{v(5, 3), 3};
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], v(5, 3));
  EXPECT_EQ(nodes[1], v(2, 2));
  EXPECT_EQ(nodes[2], v(1, 1));
}

TEST(PathInstance, Fits) {
  const CompleteBinaryTree tree(4);
  EXPECT_TRUE((PathInstance{v(5, 3), 4}.fits(tree)));   // reaches the root
  EXPECT_FALSE((PathInstance{v(5, 3), 5}.fits(tree)));  // overshoots the root
}

TEST(ElementaryInstance, KindDispatch) {
  const ElementaryInstance s = SubtreeInstance{v(0, 0), 3};
  const ElementaryInstance l = LevelRunInstance{v(0, 2), 2};
  const ElementaryInstance p = PathInstance{v(0, 2), 2};
  EXPECT_EQ(s.kind(), TemplateKind::kSubtree);
  EXPECT_EQ(l.kind(), TemplateKind::kLevelRun);
  EXPECT_EQ(p.kind(), TemplateKind::kPath);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_NE(s.get_if<SubtreeInstance>(), nullptr);
  EXPECT_EQ(s.get_if<PathInstance>(), nullptr);
}

TEST(CompositeInstance, SizeComponentsAndNodes) {
  CompositeInstance c;
  c.add(SubtreeInstance{v(0, 1), 3});
  c.add(LevelRunInstance{v(4, 3), 2});
  EXPECT_EQ(c.component_count(), 2u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.nodes().size(), 5u);
  EXPECT_TRUE(c.is_disjoint());
}

TEST(CompositeInstance, DetectsOverlap) {
  CompositeInstance c;
  c.add(SubtreeInstance{v(0, 1), 3});
  c.add(PathInstance{v(0, 2), 2});  // v(0,2) and v(0,1) are in the subtree
  EXPECT_FALSE(c.is_disjoint());
}

TEST(CompositeInstance, FitsChecksAllParts) {
  const CompleteBinaryTree tree(4);
  CompositeInstance good;
  good.add(SubtreeInstance{v(0, 2), 3});
  good.add(LevelRunInstance{v(4, 3), 3});
  EXPECT_TRUE(good.fits(tree));
  CompositeInstance bad = good;
  bad.add(PathInstance{v(0, 3), 5});
  EXPECT_FALSE(bad.fits(tree));
}

TEST(TemplateKind, Names) {
  EXPECT_STREQ(to_string(TemplateKind::kSubtree), "S");
  EXPECT_STREQ(to_string(TemplateKind::kLevelRun), "L");
  EXPECT_STREQ(to_string(TemplateKind::kPath), "P");
}

}  // namespace
}  // namespace pmtree
