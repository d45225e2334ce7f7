// servebench: the xmlq serving benchmark driver.
//
// Hosts an api::Database and a net::Server in this process, generates every
// input from --seed, and drives one workload with closed-loop clients (each
// waits for its reply before sending the next request). Every response is
// compared against a reference answer computed at setup through
// Database::Query with the plan cache off and the naive engine forced; a
// mismatch counts as a failed operation.
//
// Passes:
//   untraced  the end-to-end metrics (always run; with --trace 1 it takes the
//             first half of --seconds, and its p50 is the tracing baseline).
//   traced    (--trace 1) replays the same seeded request sequence and, per
//             request, times from outside the calls into each module's
//             public functions: the wire round trip, Database::Query, ToXml,
//             NormalizeQuery, CompileQuery/CompilePath, ChooseStrategy, a
//             collect_stats Query (τ time and counters), and the response
//             frame codec. Spans (name, start, end, parent, request id) are
//             kept in memory and written to --spans as NDJSON at exit, next
//             to the pass counters; summarize.py turns them into the
//             per-layer metrics.
//
// Output: one JSON object on the last line of stdout with the end-to-end
// metrics, the operation counts, the input record and the host context.
// run.py is the entry point that builds this program and formats the result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/random.h"
#include "xmlq/cache/normalize.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/net/client.h"
#include "xmlq/net/protocol.h"
#include "xmlq/net/server.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xquery/translate.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using namespace xmlq;  // NOLINT: benchmark driver, one translation unit.

using Clock = std::chrono::steady_clock;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

// Setup repeats at least kMinSetupReps times and until it has taken
// kMinSetupSeconds (at most kMaxSetupReps times); setup_s is the median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 0.5;
// Traced requests per client: enough for steady per-layer medians while
// keeping the span file (about 12 spans a request) small.
constexpr uint64_t kMaxTracedRequests = 2000;

// -- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // required with --trace 1
  bool tiny = false;  // seconds-long self-test scale
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--scale") {
      if (value != "tiny" && value != "full") Die("--scale tiny|full");
      args.tiny = value == "tiny";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  if (args.trace && args.spans_path.empty()) Die("--trace 1 needs --spans");
  return args;
}

// -- Workloads ---------------------------------------------------------------

struct Doc {
  std::string name;
  std::string xml;
};

/// One workload's generated inputs and traffic shape.
struct Spec {
  std::vector<Doc> catalog;  // loaded at setup; the first is the default doc
  std::vector<std::string> texts;  // distinct request texts
  // Draws: weighted by `cdf` (cumulative weights over `texts`), or, when
  // `balanced`, back-to-back seeded permutations of all texts.
  std::vector<double> cdf;
  bool balanced = false;
  uint32_t clients = 1;
  bool wire = true;          // clients talk to the server (else in-process)
  uint32_t parallelism = 1;  // != 1 rides a kQueryOpts frame
  // adhoc_write's writer: alternates `write_versions` into `write_doc` on a
  // fixed schedule.
  std::string write_doc;
  std::vector<std::string> write_versions;
  uint64_t write_period_us = 0;
};

std::string AuctionXml(double scale, uint64_t seed) {
  datagen::AuctionOptions options;
  options.scale = scale;
  options.seed = seed;
  return xml::Serialize(*datagen::GenerateAuctionSite(options));
}

std::string BibXml(size_t books, uint64_t seed) {
  datagen::BibOptions options;
  options.num_books = books;
  options.seed = seed;
  return xml::Serialize(*datagen::GenerateBibliography(options));
}

/// Zipf (s = 1) weights over `n` ranks, assigned to a seeded permutation so
/// the hot keys differ per seed.
std::vector<double> ZipfWeights(size_t n, Rng* rng) {
  std::vector<size_t> rank(n);
  std::iota(rank.begin(), rank.end(), size_t{0});
  for (size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[rng->Below(i)]);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) weights[i] = 1.0 / double(rank[i] + 1);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (double& w : weights) w /= total;
  return weights;
}

/// One client's seeded request sequence over `spec.texts`: weighted draws,
/// or, for a balanced spec, back-to-back seeded permutations of every text,
/// so the mix a pass sees does not drift with its length.
class Sequence {
 public:
  Sequence(const Spec& spec, uint64_t seed, uint64_t stream)
      : spec_(spec), rng_(Rng::Stream(seed, stream)) {}

  size_t Next() {
    if (!spec_.balanced) {
      const double x = rng_.NextDouble() * spec_.cdf.back();
      const auto it = std::upper_bound(spec_.cdf.begin(), spec_.cdf.end(), x);
      return std::min<size_t>(it - spec_.cdf.begin(), spec_.cdf.size() - 1);
    }
    if (next_ == round_.size()) {
      round_.resize(spec_.texts.size());
      std::iota(round_.begin(), round_.end(), size_t{0});
      for (size_t i = round_.size(); i > 1; --i) {
        std::swap(round_[i - 1], round_[rng_.Below(i)]);
      }
      next_ = 0;
    }
    return round_[next_++];
  }

 private:
  const Spec& spec_;
  Rng rng_;
  std::vector<size_t> round_;
  size_t next_ = 0;
};

/// lookup: parameterized point lookups over XMark 0.1 plus 64 tenant
/// bibliographies; Zipf-drawn literals, so nearly every request is a plan
/// cache hit with a tiny response.
Spec LookupSpec(uint64_t seed, bool tiny) {
  Spec spec;
  Rng rng = Rng::Stream(seed, 1);
  const double scale = tiny ? 0.01 : 0.1;
  const size_t tenants = tiny ? 4 : 64;
  const size_t people = static_cast<size_t>(2000 * scale);
  spec.catalog.push_back({"auction.xml", AuctionXml(scale, seed)});
  for (size_t t = 0; t < tenants; ++t) {
    spec.catalog.push_back({"tenant" + std::to_string(t) + ".xml",
                            BibXml(20, seed * 1000 + t)});
  }
  const std::vector<double> person_w = ZipfWeights(people, &rng);
  const std::vector<double> tenant_w = ZipfWeights(tenants, &rng);
  const std::vector<double> year_w = ZipfWeights(20, &rng);
  std::vector<double> weights;
  for (size_t p = 0; p < people; ++p) {
    spec.texts.push_back("//person[@id = 'person" + std::to_string(p) +
                         "']/name");
    weights.push_back(0.5 * person_w[p]);
  }
  for (size_t t = 0; t < tenants; ++t) {
    for (int y = 0; y < 20; ++y) {
      spec.texts.push_back("for $b in doc(\"tenant" + std::to_string(t) +
                           ".xml\")/bib/book where $b/@year = " +
                           std::to_string(1985 + y) + " return $b/title");
      weights.push_back(0.5 * tenant_w[t] * year_w[y]);
    }
  }
  spec.cdf.resize(weights.size());
  std::partial_sum(weights.begin(), weights.end(), spec.cdf.begin());
  spec.clients = 4;
  return spec;
}

/// analytic / analytic_par: twig, scan and constructing-FLWOR queries over
/// XMark 1.0 with tens-of-KB responses, under `auto` engine choice.
Spec AnalyticSpec(uint64_t seed, bool tiny, uint32_t parallelism) {
  Spec spec;
  Rng rng = Rng::Stream(seed, 2);
  spec.catalog.push_back({"auction.xml", AuctionXml(tiny ? 0.02 : 1.0, seed)});
  static const char* const kCities[] = {"Waterloo", "Toronto", "Boston",
                                        "Berlin",   "Tokyo",   "Sydney",
                                        "Nairobi",  "Lima"};
  const std::string city = kCities[rng.Below(8)];
  const std::string payment = rng.Chance(0.5) ? "Cash" : "Creditcard";
  spec.texts = {
      // Twigs.
      "//person[address][phone]/name",
      "//open_auction[bidder]/current",
      "//item[payment = '" + payment + "']/location",
      "//person[profile/education]/emailaddress",
      // Scans.
      "//closed_auction/price",
      "//category/name",
      // FLWOR, with and without construction.
      "for $p in doc(\"auction.xml\")//person where $p/address/city = '" +
          city + "' return <p>{$p/name}{$p/emailaddress}</p>",
      "for $a in doc(\"auction.xml\")//open_auction where count($a/bidder) > "
      "3 return <a>{$a/current}{$a/itemref}</a>",
      "for $c in doc(\"auction.xml\")//closed_auction return "
      "<sale>{$c/price}{$c/date}</sale>",
      "for $i in doc(\"auction.xml\")//item where $i/quantity = '1' return "
      "$i/name",
  };
  spec.balanced = true;
  spec.clients = 1;
  spec.parallelism = parallelism;
  return spec;
}

/// adhoc_write: embedded readers issue seeded ad hoc queries whose
/// structure is new to the plan cache, while one writer replaces a document
/// the readers never query on a fixed schedule.
Spec AdhocSpec(uint64_t seed, bool tiny) {
  struct Entity {
    const char* tag;
    std::vector<const char*> paths;  // relative child paths
  };
  static const std::vector<Entity> kEntities = {
      {"person",
       {"name", "emailaddress", "phone", "address", "address/city",
        "address/country", "address/street", "profile", "profile/education",
        "profile/gender", "profile/interest"}},
      {"item",
       {"location", "quantity", "name", "payment", "description",
        "description/text", "mailbox", "mailbox/mail", "mailbox/mail/from",
        "mailbox/mail/date"}},
      {"open_auction",
       {"initial", "bidder", "bidder/date", "bidder/increase",
        "bidder/personref", "current", "itemref", "seller", "quantity"}},
      {"closed_auction",
       {"seller", "buyer", "itemref", "price", "quantity", "date"}},
      {"category", {"name", "description", "description/text"}},
      {"mail", {"from", "date", "text"}},
  };
  Spec spec;
  Rng rng = Rng::Stream(seed, 3);
  const double scale = tiny ? 0.01 : 0.1;
  spec.catalog.push_back({"auction.xml", AuctionXml(scale, seed)});
  spec.write_doc = "feed.xml";
  spec.write_versions = {AuctionXml(scale, seed + 101),
                         AuctionXml(scale, seed + 202)};
  spec.catalog.push_back({spec.write_doc, spec.write_versions[0]});

  const size_t want = tiny ? 64 : 1024;
  for (size_t attempt = 0; spec.texts.size() < want && attempt < want * 50;
       ++attempt) {
    const Entity& e = kEntities[rng.Below(kEntities.size())];
    const auto pick = [&] { return std::string(e.paths[rng.Below(e.paths.size())]); };
    std::string preds;
    const uint64_t npred = rng.Below(3);
    for (uint64_t p = 0; p < npred; ++p) preds += "[" + pick() + "]";
    const std::string out = pick();
    const std::string tag = e.tag;
    std::string text;
    switch (rng.Below(4)) {
      case 0:
        text = "//" + tag + preds + "/" + out;
        break;
      case 1:
        text = "for $x in doc(\"auction.xml\")//" + tag + preds +
               " return $x/" + out;
        break;
      case 2:
        text = "count(doc(\"auction.xml\")//" + tag + preds + "/" + out + ")";
        break;
      default:
        text = "for $x in doc(\"auction.xml\")//" + tag + preds +
               " return <r>{$x/" + out + "}</r>";
        break;
    }
    if (std::find(spec.texts.begin(), spec.texts.end(), text) ==
        spec.texts.end()) {
      spec.texts.push_back(std::move(text));
    }
  }
  spec.balanced = true;
  spec.clients = 3;
  spec.wire = false;
  spec.write_period_us = tiny ? 20'000 : 50'000;
  return spec;
}

Spec MakeSpec(const Args& args) {
  if (args.workload == "lookup") return LookupSpec(args.seed, args.tiny);
  if (args.workload == "analytic") return AnalyticSpec(args.seed, args.tiny, 1);
  if (args.workload == "analytic_par") {
    return AnalyticSpec(args.seed, args.tiny, 4);
  }
  if (args.workload == "adhoc_write") return AdhocSpec(args.seed, args.tiny);
  Die("unknown workload '" + args.workload +
      "' (lookup|analytic|analytic_par|adhoc_write)");
}

// -- Hosting -----------------------------------------------------------------

struct Hosted {
  std::unique_ptr<api::Database> db;
  std::unique_ptr<net::Server> server;
  double setup_seconds = 0;
  double primary_load_ms = 0;  // the first catalog document's LoadDocument
};

Hosted SetUp(const Spec& spec) {
  Hosted hosted;
  const uint64_t t0 = NowNanos();
  hosted.db = std::make_unique<api::Database>();
  for (size_t i = 0; i < spec.catalog.size(); ++i) {
    const uint64_t l0 = NowNanos();
    const Status loaded =
        hosted.db->LoadDocument(spec.catalog[i].name, spec.catalog[i].xml);
    if (!loaded.ok()) Die("load " + spec.catalog[i].name + ": " + loaded.ToString());
    if (i == 0) hosted.primary_load_ms = double(NowNanos() - l0) / 1e6;
  }
  hosted.server =
      std::make_unique<net::Server>(hosted.db.get(), net::ServerConfig{});
  const Status started = hosted.server->Start();
  if (!started.ok()) Die("server start: " + started.ToString());
  hosted.setup_seconds = double(NowNanos() - t0) / 1e9;
  return hosted;
}

void TearDown(Hosted* hosted) {
  if (hosted->server != nullptr) (void)hosted->server->Shutdown();
  hosted->server.reset();
  hosted->db.reset();
}

api::QueryOptions ReferenceOptions() {
  api::QueryOptions options;
  options.auto_optimize = false;
  options.strategy = exec::PatternStrategy::kNaive;
  options.use_plan_cache = false;
  return options;
}

// -- Tracing -----------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t request;
  uint64_t start_ns;
  uint64_t end_ns;
};

struct CountRecord {
  const char* name;
  uint64_t request;
  double value;
};

/// One thread's trace buffer; merged and written out after the pass.
class TraceBuffer {
 public:
  explicit TraceBuffer(uint64_t thread) : next_id_((thread + 1) << 40) {}

  uint64_t NewId() { return ++next_id_; }

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  auto Timed(const char* name, uint64_t parent, uint64_t request, Fn&& fn) {
    const uint64_t id = NewId();
    const uint64_t start = NowNanos();
    auto result = fn();
    spans_.push_back({name, id, parent, request, start, NowNanos()});
    return result;
  }

  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t request, uint64_t start, uint64_t end) {
    spans_.push_back({name, id, parent, request, start, end});
  }
  void Count(const char* name, uint64_t request, double value) {
    counts_.push_back({name, request, value});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<CountRecord>& counts() const { return counts_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<CountRecord> counts_;
};

// -- Passes ------------------------------------------------------------------

struct PassResult {
  // Latency of correct reads, bucketed by the one-second window of the
  // pass they completed in. Kept per window as floats so the samples add
  // little, and nothing throughput-dependent, to peak_rss_mb.
  std::vector<std::vector<float>> latency_us;
  std::vector<double> write_ms;       // writer: due -> done
  uint64_t reads = 0;
  uint64_t correct = 0;
  uint64_t failed = 0;                // errors + wrong answers (reads+writes)
  uint64_t writes = 0;
  double writer_late_ms = 0;          // worst start delay behind schedule
  double seconds = 0;
  std::string first_error;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

/// A reference answer, kept as its length and 64-bit hash so that holding
/// one per distinct request keeps their bytes out of peak_rss_mb.
struct Answer {
  size_t size = 0;
  size_t hash = 0;

  static Answer Of(std::string_view body) {
    return {body.size(), std::hash<std::string_view>{}(body)};
  }
  bool Matches(std::string_view body) const {
    return body.size() == size && std::hash<std::string_view>{}(body) == hash;
  }
};

/// Everything one client thread needs for its requests.
struct Caller {
  const Spec& spec;
  const std::vector<Answer>& reference;
  api::Database* db;
  uint16_t port;
};

/// Mirrors Database::Compile from outside: the XQuery front end first, the
/// XPath front end for absolute paths it rejects. The XPath front end
/// (Database::QueryPath's compiler) is timed on every absolute path, so its
/// rung is measured even when the XQuery front end accepts the text.
algebra::LogicalExprPtr TracedCompile(const api::Database& db,
                                      const std::string& text,
                                      TraceBuffer* trace, uint64_t parent,
                                      uint64_t request) {
  xquery::TranslateOptions options;
  options.default_document = db.default_document();
  auto plan = trace->Timed("xquery.compile", parent, request, [&] {
    return xquery::CompileQuery(text, options);
  });
  if (!text.empty() && text[0] == '/') {
    auto path = trace->Timed("xpath.compile", parent, request, [&] {
      return xpath::CompilePath(text, db.default_document());
    });
    if (!plan.ok() && path.ok()) return std::move(*path);
  }
  return plan.ok() ? std::move(*plan) : nullptr;
}

void CollectPatterns(const algebra::LogicalExpr& plan,
                     std::vector<const algebra::LogicalExpr*>* out) {
  if (plan.op == algebra::LogicalOp::kTreePattern) out->push_back(&plan);
  for (const auto& child : plan.children) CollectPatterns(*child, out);
}

/// τ counters summed over the profile's TreePattern operators.
struct TauStats {
  uint64_t wall_nanos = 0;
  uint64_t nodes_visited = 0;
  uint64_t index_probes = 0;
  uint64_t results = 0;
  double qerror_max = 0;
};

void SumTau(const exec::ProfileNode& node, TauStats* out) {
  if (node.label.rfind("TreePattern", 0) == 0) {
    out->wall_nanos += node.stats.wall_nanos;
    out->nodes_visited += node.stats.nodes_visited;
    out->index_probes += node.stats.index_probes;
    out->results += node.stats.output_rows;
  }
  out->qerror_max = std::max(out->qerror_max, node.QError());
  for (const exec::ProfileNode& child : node.children) SumTau(child, out);
}

std::optional<TauStats> ProfiledRun(const api::Database& db,
                                    const std::string& text,
                                    uint32_t parallelism) {
  api::QueryOptions options;
  options.collect_stats = true;
  options.parallelism = parallelism;
  auto result = db.Query(text, options);
  if (!result.ok() || result->profile == nullptr) return std::nullopt;
  TauStats stats;
  SumTau(result->profile->root(), &stats);
  return stats;
}

/// One traced write: LoadDocument, then parse and storage build of the same
/// text timed apart so the catalog swap is their difference.
bool TracedWrite(api::Database* db, const std::string& name,
                 const std::string& text, TraceBuffer* trace,
                 uint64_t request) {
  const uint64_t root = trace->NewId();
  const uint64_t start = NowNanos();
  const Status loaded = trace->Timed("api.load", root, request, [&] {
    return db->LoadDocument(name, text);
  });
  auto parsed = trace->Timed("xml.parse", root, request,
                             [&] { return xml::ParseDocument(text); });
  bool ok = loaded.ok() && parsed.ok();
  if (parsed.ok()) {
    ok &= trace->Timed("storage.build", root, request, [&] {
      return storage::SuccinctDocument::TryBuild(*parsed).ok() &&
             storage::RegionIndex::TryBuild(*parsed).ok() &&
             storage::ValueIndex::TryBuild(*parsed).ok();
    });
  }
  trace->Record("write", root, 0, request, start, NowNanos());
  return ok;
}

/// One traced read: every rung of the serving ladder for one request text.
/// Returns whether both the wire and the in-process answers were correct.
bool TracedRead(const Caller& caller, net::Client* client, size_t index,
                TraceBuffer* trace, uint64_t request) {
  const std::string& text = caller.spec.texts[index];
  const Answer& want = caller.reference[index];
  const uint32_t par = caller.spec.parallelism;
  api::Database& db = *caller.db;
  const uint64_t root = trace->NewId();
  const uint64_t start = NowNanos();

  bool ok = true;
  const auto wire_rung = [&] {
    auto wire = trace->Timed("net.rtt", root, request,
                             [&] { return client->Query(text, par); });
    ok &= wire.ok() && wire->code == StatusCode::kOk &&
          want.Matches(wire->body);
  };
  // The embedded user's call: Database::Query then ToXml.
  std::string body;
  const auto embedded_rung = [&] {
    const uint64_t embedded = trace->NewId();
    const uint64_t e0 = NowNanos();
    api::QueryOptions options;
    options.parallelism = par;
    auto result = trace->Timed("api.query", embedded, request,
                               [&] { return db.Query(text, options); });
    if (result.ok()) {
      body = trace->Timed("xml.serialize", embedded, request,
                          [&] { return api::Database::ToXml(*result); });
    }
    trace->Record("embedded", embedded, root, request, e0, NowNanos());
    ok &= result.ok() && want.Matches(body);
  };
  // The workload's own call goes first, so it meets the plan cache in the
  // state the untraced pass leaves it in; the other rung then hits.
  if (caller.spec.wire) {
    wire_rung();
    embedded_rung();
  } else {
    embedded_rung();
    wire_rung();
  }
  trace->Count("net.response_bytes", request, double(body.size()));

  trace->Timed("cache.normalize", root, request,
               [&] { return cache::NormalizeQuery(text).fingerprint.size(); });
  const algebra::LogicalExprPtr plan =
      TracedCompile(db, text, trace, root, request);
  if (plan != nullptr) {
    std::vector<const algebra::LogicalExpr*> patterns;
    CollectPatterns(*plan, &patterns);
    trace->Timed("opt.choose", root, request, [&] {
      double cost = 0;
      for (const algebra::LogicalExpr* node : patterns) {
        std::string doc_name;
        if (!node->children.empty() &&
            node->children[0]->op == algebra::LogicalOp::kDocScan) {
          doc_name = node->children[0]->str;
        }
        // Get() is safe here: no workload replaces a document it queries.
        const exec::IndexedDocument* doc = db.Get(doc_name);
        const opt::Synopsis* synopsis = db.GetSynopsis(doc_name);
        if (doc == nullptr || synopsis == nullptr || node->pattern == nullptr) {
          continue;
        }
        cost += opt::ChooseStrategy(*synopsis, doc->dom->pool(), *node->pattern)
                    .cost;
      }
      return cost;
    });
  }
  const auto tau = trace->Timed("exec.profiled", root, request,
                                [&] { return ProfiledRun(db, text, par); });
  if (tau.has_value()) {
    trace->Count("exec.tau_ns", request, double(tau->wall_nanos));
  }
  trace->Timed("net.frame", root, request, [&] {
    net::ResponsePayload payload;
    payload.body = body;
    const std::string frame = net::EncodeFrame(
        net::FrameType::kResponse, request, net::EncodeResponse(payload));
    net::Frame decoded;
    size_t consumed = 0;
    std::string error;
    net::ResponsePayload out;
    return net::DecodeFrame(frame, &decoded, &consumed, &error,
                            UINT32_MAX) == net::DecodeStatus::kFrame &&
           net::DecodeResponse(decoded.payload, &out);
  });
  trace->Record("request", root, 0, request, start, NowNanos());
  return ok;
}

/// Runs the workload's closed-loop readers (and its writer) for `seconds`.
/// With `traces` set, each request runs the traced ladder instead.
PassResult RunPass(const Caller& caller, uint64_t seed, uint64_t stream_base,
                   double seconds, std::vector<TraceBuffer>* traces) {
  const Spec& spec = caller.spec;
  const bool traced = traces != nullptr;
  const uint32_t threads = spec.clients + (spec.write_period_us ? 1 : 0);
  if (traced) {
    traces->clear();
    for (uint32_t t = 0; t < threads; ++t) traces->emplace_back(t);
  }
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(std::floor(seconds)));
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9) / windows;
  std::vector<PassResult> parts(threads);
  for (PassResult& part : parts) part.latency_us.resize(windows);
  const uint64_t begin = NowNanos();
  const uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);

  auto reader = [&](uint32_t t) {
    PassResult& part = parts[t];
    TraceBuffer* trace = traced ? &(*traces)[t] : nullptr;
    Sequence sequence(spec, seed, stream_base + t);
    std::optional<net::Client> client;
    if (spec.wire || traced) {
      auto connected = net::Client::Connect("127.0.0.1", caller.port);
      if (!connected.ok()) {
        part.failed = 1;
        part.first_error = connected.status().ToString();
        return;
      }
      client.emplace(std::move(*connected));
    }
    api::QueryOptions options;
    options.parallelism = spec.parallelism;
    uint64_t n = 0;
    while (NowNanos() < end && (!traced || n < kMaxTracedRequests)) {
      const size_t index = sequence.Next();
      const std::string& text = spec.texts[index];
      const uint64_t request = (uint64_t(t) << 32) | n++;
      ++part.reads;
      bool ok = false;
      std::string error;
      const uint64_t t0 = NowNanos();
      if (traced) {
        ok = TracedRead(caller, &*client, index, trace, request);
      } else if (spec.wire) {
        auto response = client->Query(text, spec.parallelism);
        ok = response.ok() && response->code == StatusCode::kOk &&
             caller.reference[index].Matches(response->body);
        if (!ok) {
          error = !response.ok() ? response.status().ToString()
                                 : "wrong or error response to " + text +
                                       ": " + response->body.substr(0, 200);
        }
      } else {
        auto result = caller.db->Query(text, options);
        ok = result.ok() &&
             caller.reference[index].Matches(api::Database::ToXml(*result));
        if (!ok) {
          error = !result.ok() ? result.status().ToString()
                               : "wrong answer to " + text;
        }
      }
      const uint64_t t1 = NowNanos();
      if (ok) {
        ++part.correct;
        const size_t w = std::min<size_t>(windows - 1, (t1 - begin) / window_ns);
        part.latency_us[w].push_back(float(t1 - t0) / 1e3f);
      } else {
        ++part.failed;
        if (part.first_error.empty()) {
          part.first_error = error.empty() ? "wrong answer to " + text : error;
        }
      }
    }
  };

  auto writer = [&](uint32_t t) {
    PassResult& part = parts[t];
    TraceBuffer* trace = traced ? &(*traces)[t] : nullptr;
    for (uint64_t k = 0;; ++k) {
      const uint64_t due = begin + k * spec.write_period_us * 1000;
      if (due >= end) break;
      uint64_t now = NowNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNanos();
      }
      part.writer_late_ms =
          std::max(part.writer_late_ms, double(now - due) / 1e6);
      const std::string& version =
          spec.write_versions[k % spec.write_versions.size()];
      ++part.writes;
      bool ok;
      if (traced) {
        ok = TracedWrite(caller.db, spec.write_doc, version, trace,
                         (uint64_t(t) << 32) | k);
      } else {
        ok = caller.db->LoadDocument(spec.write_doc, version).ok();
      }
      if (ok) {
        part.write_ms.push_back(double(NowNanos() - due) / 1e6);
      } else {
        ++part.failed;
        if (part.first_error.empty()) part.first_error = "write failed";
      }
    }
  };

  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < spec.clients; ++t) pool.emplace_back(reader, t);
  if (spec.write_period_us != 0) pool.emplace_back(writer, spec.clients);
  for (std::thread& thread : pool) thread.join();

  PassResult total;
  total.latency_us.resize(windows);
  total.seconds = double(NowNanos() - begin) / 1e9;
  for (PassResult& part : parts) {
    for (size_t w = 0; w < windows; ++w) {
      total.latency_us[w].insert(total.latency_us[w].end(),
                                 part.latency_us[w].begin(),
                                 part.latency_us[w].end());
      std::vector<float>().swap(part.latency_us[w]);
    }
    total.write_ms.insert(total.write_ms.end(), part.write_ms.begin(),
                          part.write_ms.end());
    total.reads += part.reads;
    total.correct += part.correct;
    total.failed += part.failed;
    total.writes += part.writes;
    total.writer_late_ms = std::max(total.writer_late_ms, part.writer_late_ms);
    if (total.first_error.empty()) total.first_error = part.first_error;
  }
  return total;
}

/// Read throughput and latency of a pass, each the median over its
/// one-second windows, so a burst of outside load on a shared host moves
/// one window, not the figure.
struct ReadStats {
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
};

ReadStats Windowed(const PassResult& pass) {
  const double window_s = pass.seconds / double(pass.latency_us.size());
  std::vector<double> qps, p50, p90;
  for (const std::vector<float>& window : pass.latency_us) {
    const std::vector<double> latency(window.begin(), window.end());
    qps.push_back(double(latency.size()) / window_s);
    p50.push_back(Quantile(latency, 0.5));
    p90.push_back(Quantile(latency, 0.9));
  }
  return {Quantile(qps, 0.5), Quantile(p50, 0.5), Quantile(p90, 0.5)};
}

// -- Output ------------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds `{"k": v, ...}` from name/value pairs.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + raw;
    return *this;
  }
  JsonObject& Add(const std::string& key, double value) {
    return Add(key, Num(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Component bytes of every catalog document, per XML input byte.
struct Footprint {
  double input_bytes = 0;
  double nodes = 0;
  double dom = 0, succinct = 0, region = 0, value = 0, tags = 0;
  double Total() const { return dom + succinct + region + value + tags; }
};

Footprint MeasureFootprint(const api::Database& db, const Spec& spec) {
  Footprint f;
  for (const Doc& doc : spec.catalog) {
    auto report = db.Report(doc.name);
    if (!report.ok()) Die("report " + doc.name + ": " + report.status().ToString());
    f.input_bytes += double(doc.xml.size());
    f.nodes += double(report->node_count);
    f.dom += double(report->dom_bytes);
    f.succinct += double(report->succinct_structure_bytes +
                         report->succinct_content_bytes);
    f.region += double(report->region_index_bytes);
    f.value += double(report->value_index_bytes);
    f.tags += double(report->tag_dictionary_bytes);
  }
  return f;
}

/// Plan-cache templates among the request texts: distinct fingerprints
/// after literal lifting.
size_t DistinctTemplates(const Spec& spec) {
  std::vector<std::string> fingerprints;
  for (const std::string& text : spec.texts) {
    fingerprints.push_back(cache::NormalizeQuery(text).fingerprint);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  return std::unique(fingerprints.begin(), fingerprints.end()) -
         fingerprints.begin();
}

void WriteSpans(const std::string& path, const std::vector<TraceBuffer>& traces,
                const std::vector<std::pair<std::string, double>>& counters) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) Die("cannot write " + path);
  for (const auto& [name, value] : counters) {
    out << "{\"counter\": " << JsonString(name) << ", \"value\": " << Num(value)
        << "}\n";
  }
  for (const TraceBuffer& trace : traces) {
    for (const Span& s : trace.spans()) {
      out << "{\"span\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"req\": " << s.request
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
    for (const CountRecord& c : trace.counts()) {
      out << "{\"count\": \"" << c.name << "\", \"req\": " << c.request
          << ", \"value\": " << Num(c.value) << "}\n";
    }
  }
  if (!out.flush()) Die("write failed: " + path);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Spec spec = MakeSpec(args);

  // Setup, several times; the last instance serves the passes.
  std::vector<double> setup_s, primary_load_ms;
  Hosted hosted;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total < kMinSetupSeconds);
       ++rep) {
    TearDown(&hosted);
    hosted = SetUp(spec);
    setup_s.push_back(hosted.setup_seconds);
    setup_total += hosted.setup_seconds;
    primary_load_ms.push_back(hosted.primary_load_ms);
  }
  api::Database& db = *hosted.db;

  // Reference answers: naive engine, plan cache off.
  std::vector<Answer> reference;
  reference.reserve(spec.texts.size());
  double reference_bytes = 0;
  for (const std::string& text : spec.texts) {
    auto result = db.Query(text, ReferenceOptions());
    if (!result.ok()) {
      Die("reference answer for '" + text + "': " + result.status().ToString());
    }
    reference.push_back(Answer::Of(api::Database::ToXml(*result)));
    reference_bytes += double(reference.back().size);
  }
  const Caller caller{spec, reference, &db, hosted.server->port()};

  // Warm-up: fill the plan cache and let lazy set-up finish.
  const double warm = std::min(1.0, args.seconds / 10);
  const PassResult warmup = RunPass(caller, args.seed, 100, warm, nullptr);

  const cache::CacheStats cache0 = db.plan_cache_stats();
  const net::ServerStats server0 = hosted.server->stats();
  const double measure = args.trace ? args.seconds / 2 : args.seconds;
  const PassResult pass = RunPass(caller, args.seed, 1, measure, nullptr);
  const cache::CacheStats cache1 = db.plan_cache_stats();
  const net::ServerStats server1 = hosted.server->stats();
  const exec::AdmissionStats admission = db.admission_stats();

  uint64_t attempted = warmup.reads + warmup.writes + pass.reads + pass.writes;
  uint64_t failed = warmup.failed + pass.failed;
  std::string first_error =
      warmup.first_error.empty() ? pass.first_error : warmup.first_error;

  const Footprint footprint = MeasureFootprint(db, spec);
  const ReadStats reads = Windowed(pass);

  if (args.trace) {
    // Same seeded request sequence (same streams) as the untraced pass.
    std::vector<TraceBuffer> traces;
    const PassResult traced = RunPass(caller, args.seed, 1, measure, &traces);
    attempted += traced.reads + traced.writes;
    failed += traced.failed;
    if (first_error.empty()) first_error = traced.first_error;
    if (spec.write_period_us == 0) {
      // Read-only workloads: the write rungs from reloading the primary.
      traces.emplace_back(traces.size());
      for (int k = 0; k < kMinSetupReps; ++k) {
        ++attempted;
        if (!TracedWrite(&db, spec.catalog[0].name, spec.catalog[0].xml,
                         &traces.back(),
                         (uint64_t(traces.size() - 1) << 32) | uint64_t(k))) {
          ++failed;
        }
      }
    }
    const uint64_t lookups = (cache1.hits - cache0.hits) +
                             (cache1.misses - cache0.misses);
    const std::vector<std::pair<std::string, double>> counters = {
        {"untraced.p50_us", reads.p50_us},
        {"user_span", spec.wire ? 1.0 : 0.0},  // 1: net.rtt, 0: embedded
        {"cache.hit_ratio",
         lookups == 0 ? 0.0 : double(cache1.hits - cache0.hits) / lookups},
        {"cache.invalidations", double(cache1.invalidations - cache0.invalidations)},
        {"cache.evictions", double(cache1.evictions - cache0.evictions)},
        {"cache.replans", double(cache1.replans - cache0.replans)},
        {"net.overload_responses",
         double(server1.overload_responses - server0.overload_responses)},
        {"exec.admission_peak_running", double(admission.peak_running)},
        {"storage.dom_bytes_per_input_byte", footprint.dom / footprint.input_bytes},
        {"storage.succinct_bytes_per_input_byte",
         footprint.succinct / footprint.input_bytes},
        {"storage.region_bytes_per_input_byte",
         footprint.region / footprint.input_bytes},
        {"storage.value_bytes_per_input_byte",
         footprint.value / footprint.input_bytes},
    };
    // Deterministic τ counters: every distinct text once, mean per text.
    TraceBuffer sweep(traces.size());
    for (size_t i = 0; i < spec.texts.size(); ++i) {
      const auto tau = ProfiledRun(db, spec.texts[i], spec.parallelism);
      if (!tau.has_value()) continue;
      const uint64_t request = (uint64_t(traces.size()) << 32) | i;
      sweep.Count("exec.nodes_visited", request, double(tau->nodes_visited));
      sweep.Count("exec.index_probes", request, double(tau->index_probes));
      sweep.Count("exec.results", request, double(tau->results));
      sweep.Count("opt.qerror", request, tau->qerror_max);
    }
    traces.push_back(std::move(sweep));
    WriteSpans(args.spans_path, traces, counters);
  }
  TearDown(&hosted);

  const double write_p50_ms = spec.write_period_us != 0
                                  ? Quantile(pass.write_ms, 0.5)
                                  : Quantile(primary_load_ms, 0.5);
  JsonObject metrics;
  metrics.Add("setup_s", Quantile(setup_s, 0.5))
      .Add("qps", reads.qps)
      .Add("p50_us", reads.p50_us)
      .Add("p90_us", reads.p90_us)
      .Add("write_p50_ms", write_p50_ms)
      .Add("peak_rss_mb", PeakRssMb())
      .Add("bytes_per_input_byte", footprint.Total() / footprint.input_bytes);
  JsonObject inputs;
  inputs.Add("documents", double(spec.catalog.size()))
      .Add("document_bytes", footprint.input_bytes)
      .Add("document_nodes", footprint.nodes)
      .Add("catalog_bytes", footprint.Total())
      .Add("distinct_requests", double(spec.texts.size()))
      .Add("distinct_templates", double(DistinctTemplates(spec)))
      .Add("mean_response_bytes", reference_bytes / double(spec.texts.size()))
      .Add("clients", spec.clients)
      .Add("wire", spec.wire ? 1 : 0)
      .Add("parallelism", spec.parallelism);
  JsonObject samples;
  samples.Add("reads", double(pass.reads))
      .Add("latency_samples", double(pass.correct))
      .Add("writes", double(pass.writes))
      .Add("write_samples", double(spec.write_period_us != 0
                                       ? pass.write_ms.size()
                                       : primary_load_ms.size()))
      .Add("writer_late_ms_max", pass.writer_late_ms)
      .Add("setup_reps", double(setup_s.size()))
      .Add("pass_seconds", pass.seconds);
  JsonObject out;
  out.Add("attempted", double(attempted))
      .Add("failed", double(failed))
      .Add("first_error", JsonString(first_error))
      .Add("metrics", metrics.str())
      .Add("inputs", inputs.str())
      .Add("samples", samples.str())
      .Add("hardware_concurrency", double(std::thread::hardware_concurrency()))
      .Add("build_type", JsonString(SERVEBENCH_BUILD_TYPE));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
