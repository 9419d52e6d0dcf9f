#include "cluster/hierarchy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"

namespace hinet {
namespace {

TEST(HierarchyView, DefaultIsUnaffiliatedMembers) {
  HierarchyView h(4);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(h.role(v), NodeRole::kMember);
    EXPECT_EQ(h.cluster_of(v), kNoCluster);
  }
  EXPECT_TRUE(h.heads().empty());
  EXPECT_EQ(h.member_count(), 0u);  // unaffiliated members don't count
}

TEST(HierarchyView, HeadIsItsOwnCluster) {
  HierarchyView h(4);
  h.set_head(2);
  EXPECT_TRUE(h.is_head(2));
  EXPECT_EQ(h.cluster_of(2), 2u);
  EXPECT_EQ(h.heads(), std::vector<NodeId>{2});
}

TEST(HierarchyView, MemberAffiliation) {
  HierarchyView h(4);
  h.set_head(0);
  h.set_member(1, 0);
  h.set_member(2, 0, /*gateway=*/true);
  EXPECT_EQ(h.role(1), NodeRole::kMember);
  EXPECT_EQ(h.role(2), NodeRole::kGateway);
  EXPECT_EQ(h.cluster_of(1), 0u);
  EXPECT_EQ(h.cluster_of(2), 0u);
  // members_of includes head, member and gateway.
  EXPECT_EQ(h.members_of(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(h.member_count(), 1u);
  EXPECT_EQ(h.gateway_count(), 1u);
  EXPECT_EQ(h.head_count(), 1u);
}

TEST(HierarchyView, AffiliationToNonHeadThrows) {
  HierarchyView h(4);
  EXPECT_THROW(h.set_member(1, 0), PreconditionError);
  h.set_head(0);
  EXPECT_THROW(h.set_member(0, 0), PreconditionError);  // self-membership
}

TEST(HierarchyView, MarkGatewayPreservesAffiliation) {
  HierarchyView h(3);
  h.set_head(0);
  h.set_member(1, 0);
  h.mark_gateway(1);
  EXPECT_EQ(h.role(1), NodeRole::kGateway);
  EXPECT_EQ(h.cluster_of(1), 0u);
  EXPECT_THROW(h.mark_gateway(0), PreconditionError);  // heads can't demote
}

TEST(HierarchyView, UnaffiliatedGateway) {
  HierarchyView h(3);
  h.set_unaffiliated_gateway(1);
  EXPECT_EQ(h.role(1), NodeRole::kGateway);
  EXPECT_EQ(h.cluster_of(1), kNoCluster);
}

TEST(HierarchyView, BackboneIsHeadsPlusGateways) {
  HierarchyView h(5);
  h.set_head(0);
  h.set_member(1, 0);
  h.set_member(2, 0, true);
  h.set_unaffiliated_gateway(3);
  EXPECT_EQ(h.backbone(), (std::vector<NodeId>{0, 2, 3}));
}

TEST(HierarchyView, ValidateAcceptsOneHopClusters) {
  const Graph g = gen::star(4);  // 0 hub
  HierarchyView h(4);
  h.set_head(0);
  for (NodeId v = 1; v < 4; ++v) h.set_member(v, 0);
  EXPECT_EQ(h.validate(g), "");
}

TEST(HierarchyView, ValidateRejectsNonNeighbourMember) {
  const Graph g = gen::path(3);  // 0-1-2
  HierarchyView h(3);
  h.set_head(0);
  h.set_member(2, 0);  // 2 is not adjacent to 0
  EXPECT_NE(h.validate(g), "");
}

TEST(HierarchyView, ValidateRejectsNodeCountMismatch) {
  HierarchyView h(3);
  EXPECT_NE(h.validate(Graph(4)), "");
}

TEST(HierarchyView, ValidateAllowsUnaffiliated) {
  const Graph g = gen::path(3);
  HierarchyView h(3);
  h.set_head(1);
  EXPECT_EQ(h.validate(g), "");  // nodes 0, 2 unaffiliated — allowed
}

/// `h` with member `v` affiliated to `t`, whatever t is: t is made a head
/// just long enough for the affiliation to take, then given back its role.
HierarchyView repointed(const HierarchyView& h, NodeId v, NodeId t) {
  HierarchyView out = h;
  out.set_head(t);
  out.set_member(v, t);
  if (h.is_head(t)) return out;
  const ClusterId k = h.cluster_of(t);
  if (k == kNoCluster) {
    out.set_unaffiliated_gateway(t);
  } else {
    out.set_member(t, k, h.is_gateway(t));
  }
  return out;
}

TEST(HierarchyView, SubsetCheckOverMoversRejectsWhatTheFullCheckRejects) {
  // A phase laid out like the (T, L)-HiNet generator's: heads 0, 5 and 9
  // on a chain 0-1-5 (L = 2) and 5-6-7-8-9 (L = 4, relay 7 unaffiliated),
  // members 2, 10 -> 0, 3, 11 -> 5 and 4 -> 9.  Member 3 also touches
  // head 9.  A phase derived from this one changes it only at the members
  // it re-affiliates (the movers): each is re-pointed to a head and its
  // head edge swapped.
  const std::size_t n = 12;
  const Graph g(n, {{0, 1}, {1, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
                    {2, 0}, {10, 0}, {3, 5}, {11, 5}, {4, 9}, {3, 9}});
  HierarchyView h(n);
  for (const NodeId head : {0u, 5u, 9u}) h.set_head(head);
  h.set_member(1, 0, /*gateway=*/true);
  h.set_member(6, 5, /*gateway=*/true);
  h.set_unaffiliated_gateway(7);
  h.set_member(8, 9, /*gateway=*/true);
  for (const NodeId m : {2u, 10u}) h.set_member(m, 0);
  for (const NodeId m : {3u, 11u}) h.set_member(m, 5);
  h.set_member(4, 9);
  const std::vector<NodeId> movers = {3, 4, 10};
  ASSERT_EQ(h.validate(g), "");
  ASSERT_EQ(h.validate(g, movers), "");

  // Every single mutation the derived path could make at a mover: its
  // cluster id pointed at any other node (a non-head, a head it has no
  // edge to, or a head it does touch), or its head edge dropped.  Where
  // the full check rejects, the check over the movers must reject too.
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  const auto expect_caught = [&](const HierarchyView& view, const Graph& graph,
                                 const std::string& mutation) {
    const std::string full = view.validate(graph);
    if (full.empty()) {
      ++accepted;
      return;
    }
    ++rejected;
    EXPECT_NE(view.validate(graph, movers), "")
        << mutation << " passed the subset check; the full check says: "
        << full;
  };
  for (const NodeId v : movers) {
    for (NodeId t = 0; t < n; ++t) {
      if (t == v) continue;
      expect_caught(repointed(h, v, t), g,
                    "member " + std::to_string(v) + " -> " +
                        std::to_string(t));
    }
    const std::vector<Edge> head_edge = {{v, h.cluster_of(v)}};
    expect_caught(h, Graph::edited(g, head_edge, {}),
                  "member " + std::to_string(v) + " loses its head edge");
  }
  // Both outcomes occur: re-pointing to the member's own head, or member
  // 3 to head 9, is a valid derived phase.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);

  // The full check is the subset check over every node, and a subset
  // naming a node out of range is a caller error.
  const HierarchyView bad = repointed(h, 4, 0);
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  EXPECT_EQ(bad.validate(g), bad.validate(g, all));
  EXPECT_NE(bad.validate(g), "");
  const std::vector<NodeId> out_of_range = {static_cast<NodeId>(n)};
  EXPECT_THROW((void)h.validate(g, out_of_range), PreconditionError);
}

TEST(HierarchyView, RoleNames) {
  EXPECT_STREQ(node_role_name(NodeRole::kHead), "head");
  EXPECT_STREQ(node_role_name(NodeRole::kGateway), "gateway");
  EXPECT_STREQ(node_role_name(NodeRole::kMember), "member");
}

TEST(HierarchySequence, ClampsPastEnd) {
  HierarchyView a(3);
  a.set_head(0);
  HierarchyView b(3);
  b.set_head(1);
  HierarchySequence seq({a, b});
  EXPECT_EQ(seq.round_count(), 2u);
  EXPECT_TRUE(seq.hierarchy_at(0).is_head(0));
  EXPECT_TRUE(seq.hierarchy_at(1).is_head(1));
  EXPECT_TRUE(seq.hierarchy_at(50).is_head(1));
}

TEST(HierarchySequence, RejectsEmptyAndMismatch) {
  EXPECT_THROW(HierarchySequence({}), PreconditionError);
  HierarchySequence seq({HierarchyView(3)});
  EXPECT_THROW(seq.push_back(HierarchyView(4)), PreconditionError);
  seq.push_back(HierarchyView(3));
  EXPECT_EQ(seq.round_count(), 2u);
}

}  // namespace
}  // namespace hinet
