// Campaign engine contracts (core/campaign.h): shard-layout-independent
// client sampling, byte-identical reports across shard counts and job
// counts, checkpoint/resume identity after a mid-campaign cancellation or
// a torn journal tail, shards persisted before they are announced,
// aggregate JSON round trips, reports unchanged with arenas off, and the
// campaign.* metrics family.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "obs/metrics.h"
#include "sim/arena.h"
#include "sim/trace.h"

namespace bnm::core {
namespace {

CampaignSpec small_spec(std::uint64_t clients = 60, int shards = 6) {
  CampaignSpec spec;
  spec.seed = 2024;
  spec.clients = clients;
  spec.shards = shards;
  spec.runs_per_client = 1;
  return spec;
}

TEST(CampaignSampler, ClientConfigIsPureInClientIndex) {
  const CampaignSpec spec = small_spec();
  const CampaignSampler a{spec};
  const CampaignSampler b{spec};
  for (std::uint64_t client : {0ull, 1ull, 17ull, 59ull}) {
    std::size_t pa = 0, pb = 0;
    const ExperimentConfig ca = a.client_config(client, &pa);
    const ExperimentConfig cb = b.client_config(client, &pb);
    EXPECT_EQ(pa, pb);
    EXPECT_EQ(ca.browser, cb.browser);
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.seed, cb.seed);
    EXPECT_EQ(ca.testbed.server_delay.ns(), cb.testbed.server_delay.ns());
    EXPECT_EQ(ca.testbed.bandwidth_bps, cb.testbed.bandwidth_bps);
    EXPECT_EQ(ca.testbed.link_loss_probability,
              cb.testbed.link_loss_probability);
  }
  // Different clients draw different seeds (and usually different cases).
  EXPECT_NE(a.client_config(0).seed, a.client_config(1).seed);
}

TEST(CampaignSampler, DefaultMixCoversPaperCases) {
  const CampaignSpec spec = small_spec();
  const CampaignSampler sampler{spec};
  EXPECT_EQ(sampler.profile_count(), browser::paper_cases().size());
  EXPECT_EQ(sampler.profile_labels().front(),
            browser::paper_cases().front().label());
}

TEST(CampaignSampler, MethodMixRespectsCapabilities) {
  CampaignSpec spec = small_spec(200);
  // IE on Windows has no WebSocket (Table 2): a WebSocket-only mix with an
  // IE-only case mix is unsatisfiable.
  spec.cases = {{{browser::BrowserId::kIe, browser::OsId::kWindows7}, 1.0}};
  spec.methods = {{methods::ProbeKind::kWebSocket, 1.0}};
  EXPECT_THROW(CampaignSampler{spec}, std::invalid_argument);

  // With the full default method mix the IE clients simply never draw
  // WebSocket.
  spec.methods.clear();
  const CampaignSampler sampler{spec};
  for (std::uint64_t c = 0; c < 200; ++c) {
    EXPECT_NE(sampler.client_config(c).kind, methods::ProbeKind::kWebSocket);
  }
}

TEST(CampaignSpecHash, IgnoresShardLayoutOnly) {
  CampaignSpec a = small_spec();
  CampaignSpec b = a;
  b.shards = 64;  // execution layout: must not change the hash
  EXPECT_EQ(campaign_spec_hash(a), campaign_spec_hash(b));
  b.seed ^= 1;
  EXPECT_NE(campaign_spec_hash(a), campaign_spec_hash(b));
  b = a;
  b.loss_probability += 0.001;
  EXPECT_NE(campaign_spec_hash(a), campaign_spec_hash(b));
}

TEST(Campaign, ReportByteIdenticalAcrossShardAndJobCounts) {
  CampaignOptions serial;
  serial.jobs = 1;
  const CampaignSpec one = small_spec(60, 1);
  const std::string reference =
      campaign_report_json(one, run_campaign(one, serial));

  const CampaignSpec many = small_spec(60, 7);
  EXPECT_EQ(reference, campaign_report_json(many, run_campaign(many, serial)));

  CampaignOptions pooled;
  pooled.jobs = 3;
  EXPECT_EQ(reference, campaign_report_json(many, run_campaign(many, pooled)));
}

TEST(Campaign, ReportByteIdenticalArenaOnAndOff) {
  // With arenas globally disabled the runner's scope is hidden
  // (Arena::current() is null) and shards fall back to the heap.
  const CampaignSpec spec = small_spec(30, 3);
  CampaignOptions serial;
  serial.jobs = 1;
  const std::string with_arena =
      campaign_report_json(spec, run_campaign(spec, serial));
  sim::Arena::set_enabled(false);
  const std::string without_arena =
      campaign_report_json(spec, run_campaign(spec, serial));
  sim::Arena::set_enabled(true);
  EXPECT_EQ(with_arena, without_arena);
}

TEST(Campaign, CancelThenResumeProducesIdenticalReport) {
  const std::string ck = "test_campaign_resume_ck.json";
  const CampaignSpec spec = small_spec(60, 6);
  CampaignOptions clean_opts;
  clean_opts.jobs = 1;
  const std::string clean =
      campaign_report_json(spec, run_campaign(spec, clean_opts));

  // Both sides of the runner's jobs == 1 split: the calling thread's loop
  // and the pool.
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::remove(ck.c_str());

    // First pass: cancel after two shards; the checkpoint keeps them.
    std::atomic<bool> cancel{false};
    CampaignOptions first;
    first.jobs = jobs;
    first.checkpoint = ck;
    first.cancel = &cancel;
    first.progress = [&](std::size_t done, std::size_t) {
      if (done >= 2) cancel.store(true, std::memory_order_release);
    };
    const CampaignResult partial = run_campaign(spec, first);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.shards_run, partial.shards);

    // Second pass: resume; stored shards are merged, the rest execute.
    CampaignOptions second;
    second.jobs = jobs;
    second.checkpoint = ck;
    second.resume = true;
    const CampaignResult full = run_campaign(spec, second);
    EXPECT_FALSE(full.cancelled);
    EXPECT_EQ(full.shards_resumed, partial.shards_run);
    EXPECT_EQ(full.shards_run + full.shards_resumed, full.shards);
    EXPECT_EQ(clean, campaign_report_json(spec, full));
  }

  std::remove(ck.c_str());
}

TEST(Campaign, ResumeIgnoresCheckpointFromDifferentSpec) {
  const std::string ck = "test_campaign_mismatch_ck.json";
  std::remove(ck.c_str());

  CampaignSpec spec = small_spec(30, 3);
  CampaignOptions opts;
  opts.jobs = 1;
  opts.checkpoint = ck;
  run_campaign(spec, opts);

  // Same file, different population: every shard must re-run.
  spec.seed ^= 0xdead;
  opts.resume = true;
  const CampaignResult result = run_campaign(spec, opts);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(result.shards_run, result.shards);

  std::remove(ck.c_str());
}

TEST(CampaignSpecHash, GoldenValue) {
  EXPECT_EQ(campaign_spec_hash_hex(small_spec()), "59a73d0ced6e7ef0");
}

TEST(Campaign, ShardIsPersistedBeforeItIsAnnounced) {
  const std::string ck = "test_campaign_announced_ck.json";
  std::remove(ck.c_str());
  std::vector<std::string> violations;  // progress calls are serialized
  CampaignOptions opts;
  opts.jobs = 4;
  opts.checkpoint = ck;
  opts.flush_every = 1;
  opts.progress = [&](std::size_t done, std::size_t) {
    const std::optional<Journal> journal = read_journal(ck);
    const std::size_t on_disk = journal ? journal->records.size() : 0;
    if (on_disk < done) {
      violations.push_back(std::to_string(on_disk) + " records on disk at " +
                           std::to_string(done) + " done");
    }
  };
  const CampaignResult result = run_campaign(small_spec(48, 12), opts);
  EXPECT_EQ(result.shards_run, 12u);
  EXPECT_EQ(result.progress_errors, 0u);
  EXPECT_TRUE(violations.empty()) << violations.front();
  std::remove(ck.c_str());
}

TEST(Campaign, UnopenableCheckpointFailsBeforeAnyShardRuns) {
  const std::string ck = "no_such_dir_for_checkpoints/ck.json";
  std::size_t announced = 0;
  CampaignOptions opts;
  opts.jobs = 1;
  opts.checkpoint = ck;
  opts.progress = [&](std::size_t, std::size_t) { ++announced; };
  try {
    run_campaign(small_spec(12, 3), opts);
    ADD_FAILURE() << "an unopenable checkpoint path was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(ck), std::string::npos) << e.what();
  }
  EXPECT_EQ(announced, 0u);
}

TEST(Campaign, ResumeRecompactsATornJournal) {
  const std::string ck = "test_campaign_torn_ck.json";
  std::remove(ck.c_str());
  const CampaignSpec spec = small_spec(30, 3);
  CampaignOptions opts;
  opts.jobs = 1;
  opts.checkpoint = ck;
  const std::string clean = campaign_report_json(spec, run_campaign(spec, opts));

  // Tear the last shard's record in half, as a kill mid-append would.
  std::string bytes;
  {
    std::ifstream in{ck, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  const std::size_t last = bytes.rfind('\n', bytes.size() - 2) + 1;
  {
    std::ofstream out{ck, std::ios::binary | std::ios::trunc};
    out << bytes.substr(0, last + (bytes.size() - last) / 2);
  }
  opts.resume = true;
  const CampaignResult resumed = run_campaign(spec, opts);
  EXPECT_EQ(resumed.shards_resumed, 2u);
  EXPECT_EQ(resumed.shards_run, 1u);
  EXPECT_EQ(campaign_report_json(spec, resumed), clean);
  const std::optional<Journal> journal = read_journal(ck);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->records.size(), 3u);
  std::remove(ck.c_str());
}

TEST(Campaign, AggregateJsonRoundTrip) {
  const CampaignSpec spec = small_spec(40, 1);
  CampaignOptions opts;
  opts.jobs = 1;
  const CampaignResult result = run_campaign(spec, opts);
  ASSERT_GT(result.aggregate.samples, 0u);

  CampaignAggregate back{spec.grid, result.profile_labels.size()};
  ASSERT_TRUE(
      CampaignAggregate::from_json(result.aggregate.to_json(), &back));
  EXPECT_EQ(back.to_json().dump(), result.aggregate.to_json().dump());
  EXPECT_EQ(back.clients, result.aggregate.clients);
  EXPECT_EQ(back.samples, result.aggregate.samples);
}

TEST(Campaign, FoldTracksRttInflationPerClient) {
  const CampaignSpec spec = small_spec(40, 1);
  CampaignOptions opts;
  opts.jobs = 1;
  const CampaignResult result = run_campaign(spec, opts);
  // Two RTT observations per accepted sample feed both sketches.
  EXPECT_EQ(result.aggregate.net_rtt.count(),
            2 * result.aggregate.samples);
  EXPECT_EQ(result.aggregate.rtt_inflation.count(),
            2 * result.aggregate.samples);
  // Inflation is sample − window-min: never negative.
  EXPECT_GE(result.aggregate.rtt_inflation.min(), 0.0);
}

TEST(Campaign, MemoryIsIndependentOfClientCount) {
  CampaignOptions opts;
  opts.jobs = 1;
  const CampaignSpec a = small_spec(20, 2);
  const CampaignSpec b = small_spec(80, 2);
  EXPECT_EQ(run_campaign(a, opts).aggregate.memory_bytes(),
            run_campaign(b, opts).aggregate.memory_bytes());
}

TEST(Campaign, MetricsAndTraceSpansPerShard) {
  const obs::Counter shards_completed =
      obs::MetricsRegistry::instance().counter("campaign.shards_completed",
                                               "shards", "");
  const obs::Counter clients_simulated =
      obs::MetricsRegistry::instance().counter("campaign.clients_simulated",
                                               "clients", "");
  const std::uint64_t shards_before = shards_completed.total();
  const std::uint64_t clients_before = clients_simulated.total();

  sim::Trace trace;
  trace.set_enabled(true);
  const CampaignSpec spec = small_spec(30, 3);
  CampaignOptions opts;
  opts.jobs = 1;
  opts.trace = &trace;
  run_campaign(spec, opts);

  EXPECT_EQ(shards_completed.total() - shards_before, 3u);
  EXPECT_EQ(clients_simulated.total() - clients_before, 30u);

  const sim::TraceView spans = trace.view_by_component("campaign");
  ASSERT_EQ(spans.size(), 3u);
  for (const sim::TraceRecord& rec : spans) {
    EXPECT_EQ(rec.kind, sim::TraceEventKind::kSpan);
    ASSERT_NE(rec.attr("shard"), nullptr);
    ASSERT_NE(rec.attr("clients"), nullptr);
    EXPECT_EQ(std::get<std::int64_t>(rec.attr("clients")->value), 10);
  }
}

TEST(Campaign, ProgressExceptionsAreAbsorbed) {
  const CampaignSpec spec = small_spec(20, 2);
  CampaignOptions opts;
  opts.jobs = 1;
  opts.progress = [](std::size_t, std::size_t) {
    throw std::runtime_error{"progress boom"};
  };
  const CampaignResult result = run_campaign(spec, opts);
  EXPECT_EQ(result.shards_run, 2u);
  EXPECT_EQ(result.progress_errors, 2u);
}

TEST(Campaign, ZeroClientsYieldsEmptyReport) {
  const CampaignSpec spec = small_spec(0, 4);
  CampaignOptions opts;
  opts.jobs = 1;
  const CampaignResult result = run_campaign(spec, opts);
  EXPECT_EQ(result.shards, 1u);
  EXPECT_EQ(result.aggregate.clients, 0u);
  const std::string report = campaign_report_json(spec, result);
  EXPECT_NE(report.find("\"format\":\"bnm-campaign-report\""),
            std::string::npos);
  EXPECT_EQ(report.find("nan"), std::string::npos);  // NaN never serialized
}

}  // namespace
}  // namespace bnm::core
