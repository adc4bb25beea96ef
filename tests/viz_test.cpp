#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"
#include "viz/html_view.hpp"
#include "viz/profile.hpp"
#include "viz/timeline.hpp"

namespace tdbg::viz {
namespace {

replay::RecordedRun strassen_run(bool buggy = false) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = buggy;
  return replay::record(
      8, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
}

TEST(TimelineTest, SvgContainsBarsAndMessages) {
  const auto rec = strassen_run();
  ASSERT_TRUE(rec.result.completed);
  TimeSpaceDiagram diagram(rec.trace);
  const auto svg = diagram.to_svg();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Bars for constructs and lines for messages.
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  // All 8 process labels present.
  for (int r = 0; r < 8; ++r) {
    EXPECT_NE(svg.find(">P" + std::to_string(r) + "<"), std::string::npos);
  }
}

TEST(TimelineTest, StoplineOverlayDrawsRedLine) {
  const auto rec = strassen_run();
  TimeSpaceDiagram diagram(rec.trace);
  Overlay overlay;
  overlay.stopline = (rec.trace.t_min() + rec.trace.t_max()) / 2;
  const auto svg = diagram.to_svg(overlay);
  EXPECT_NE(svg.find("stroke=\"red\" stroke-width=\"2\""), std::string::npos);
}

TEST(TimelineTest, MissedMessageRendersDashed) {
  const auto rec = strassen_run(/*buggy=*/true);
  ASSERT_TRUE(rec.result.deadlocked);
  TimeSpaceDiagram diagram(rec.trace);
  const auto svg = diagram.to_svg();
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);
}

TEST(TimelineTest, FrontierOverlayDrawsPolylines) {
  const auto rec = strassen_run();
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();
  // Mid-trace event on rank 0.
  const auto& seq = session.rank_index().seq[0];
  const auto target = seq[seq.size() / 2];
  Overlay overlay;
  overlay.selected_event = target;
  overlay.past_frontier = order.past_frontier(target);
  overlay.future_frontier = order.future_frontier(target);
  TimeSpaceDiagram diagram(rec.trace);
  const auto svg = diagram.to_svg(overlay);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
}

TEST(TimelineTest, AsciiRendersRowsBottomUp) {
  const auto rec = strassen_run();
  TimeSpaceDiagram diagram(rec.trace);
  const auto ascii = diagram.to_ascii(80);
  // Process 0 at the bottom (last process row printed above the axis).
  const auto p0 = ascii.find("P0 ");
  const auto p7 = ascii.find("P7 ");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p7, std::string::npos);
  EXPECT_LT(p7, p0);
  // Some activity characters.
  EXPECT_NE(ascii.find_first_of("src="), std::string::npos);
}

TEST(TimelineTest, AsciiStopline) {
  const auto rec = strassen_run();
  TimeSpaceDiagram diagram(rec.trace);
  Overlay overlay;
  overlay.stopline = (rec.trace.t_min() + rec.trace.t_max()) / 2;
  const auto ascii = diagram.to_ascii(60, overlay);
  EXPECT_NE(ascii.find('|'), std::string::npos);
}

TEST(TimelineTest, ZoomWindowRestrictsEvents) {
  const auto rec = strassen_run();
  DiagramOptions options;
  options.window_t0 = rec.trace.t_min();
  options.window_t1 = rec.trace.t_min() + 1;  // 1 ns window
  TimeSpaceDiagram narrow(rec.trace, options);
  TimeSpaceDiagram full(rec.trace);
  EXPECT_LT(narrow.to_svg().size(), full.to_svg().size());
}

TEST(ProfileTest, AggregatesTimeAndCalls) {
  const auto rec = strassen_run();
  const auto profile = profile_trace(rec.trace);
  ASSERT_EQ(profile.ranks.size(), 8u);
  // Workers computed; the master messaged.
  EXPECT_GT(profile.ranks[1].compute, 0);
  EXPECT_GT(profile.ranks[0].messaging, 0);
  EXPECT_GT(profile.ranks[0].calls, 0u);
  // Rows are sorted by total time, descending.
  for (std::size_t i = 1; i < profile.rows.size(); ++i) {
    EXPECT_GE(profile.rows[i - 1].total, profile.rows[i].total);
  }
  const auto text = profile.to_string(rec.trace.constructs());
  EXPECT_NE(text.find("hottest constructs"), std::string::npos);
  EXPECT_NE(text.find("compute_product"), std::string::npos);
}

TEST(ProfileTest, RowCountsMatchEventCounts) {
  const auto rec = strassen_run();
  const auto profile = profile_trace(rec.trace);
  std::uint64_t row_events = 0;
  for (const auto& row : profile.rows) row_events += row.count;
  std::uint64_t countable = 0;
  rec.trace.for_each_event([&](std::size_t, const trace::Event& e) {
    if (e.kind != trace::EventKind::kExit &&
        e.kind != trace::EventKind::kMark) {
      ++countable;
    }
  });
  EXPECT_EQ(row_events, countable);
}

TEST(HtmlViewTest, SelfContainedPage) {
  const auto rec = strassen_run();
  const auto html = to_html(rec.trace);
  EXPECT_EQ(html.find("<!doctype html>"), 0u);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("data-marker="), std::string::npos);
  EXPECT_NE(html.find("addEventListener('wheel'"), std::string::npos);
  // No external references: self-contained.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(HtmlViewTest, StoplineOverlayIncluded) {
  const auto rec = strassen_run();
  Overlay overlay;
  overlay.stopline = (rec.trace.t_min() + rec.trace.t_max()) / 2;
  const auto html = to_html(rec.trace, {}, overlay);
  EXPECT_NE(html.find("stroke='red'"), std::string::npos);
}

TEST(TimelineTest, HitTestMatchesTraceQuery) {
  const auto rec = strassen_run();
  TimeSpaceDiagram diagram(rec.trace);
  const auto t = (rec.trace.t_min() + rec.trace.t_max()) / 3;
  for (mpi::Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(diagram.hit_test(t, r), rec.trace.last_event_at_or_before(r, t));
  }
}

}  // namespace
}  // namespace tdbg::viz
