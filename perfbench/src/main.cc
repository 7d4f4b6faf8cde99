// perfbench_tool: the compiled half of the benchmark; perfbench/run.py
// runs it. Subcommands:
//
//   gen      seeded TREEBANK/DBLP forest -> XML, re-parsed and checked
//   queries  selectivity-banded query set with ExactCounter counts
//   pool     query pool drawn from the forest's own patterns
//   answer   in-process QueryService answers over a synopsis file
//   liveref  answers a serial live ingest gives at every publish point
//   loadgen  open-loop TCP load against `sketchtree_cli serve`
//   replay   traced in-process replay through each layer's public calls
#include <cctype>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/treebank_gen.h"
#include "datagen/workload.h"
#include "enumtree/enum_tree.h"
#include "enumtree/pattern.h"
#include "exact/exact_counter.h"
#include "query/pattern_query.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "tool.h"
#include "util.h"
#include "xml/xml_tree_reader.h"

namespace perfbench {
namespace {

using sketchtree::LabeledTree;

bool IsXmlName(const std::string& s) {
  if (s.empty()) return false;
  unsigned char first = static_cast<unsigned char>(s[0]);
  if (!std::isalpha(first) && first != '_') return false;
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_' && c != '-' && c != '.') return false;
  }
  return true;
}

std::string XmlEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '&') out += "&amp;";
    else if (c == '<') out += "&lt;";
    else if (c == '>') out += "&gt;";
    else out += c;
  }
  return out;
}

// Element names become elements; a leaf label that is not an XML name
// (a DBLP year or page number) becomes its parent's text content, which
// the reader turns back into the same leaf.
void AppendXml(const LabeledTree& tree, LabeledTree::NodeId node,
               std::string* out) {
  const std::string& label = tree.label(node);
  if (!IsXmlName(label)) {
    if (!tree.is_leaf(node)) Die("internal node label is not an XML name");
    *out += XmlEscape(label);
    return;
  }
  if (tree.is_leaf(node)) {
    *out += "<" + label + "/>";
    return;
  }
  *out += "<" + label + ">";
  for (LabeledTree::NodeId child : tree.children(node)) {
    AppendXml(tree, child, out);
  }
  *out += "</" + label + ">";
}

int RunGen(const Flags& f) {
  std::vector<LabeledTree> trees =
      GenerateForest(f.Str("dataset"), f.Long("trees"), f.Long("seed"));
  std::string xml = "<forest>\n";
  for (const LabeledTree& tree : trees) {
    AppendXml(tree, tree.root(), &xml);
    xml += '\n';
  }
  xml += "</forest>\n";
  std::string out = f.Str("out");
  std::ofstream file(out, std::ios::binary);
  file << xml;
  file.close();
  if (!file) Die("cannot write " + out);
  // The program and the exact counts must see the same stream.
  std::vector<LabeledTree> parsed = ReadForest(out);
  if (parsed.size() != trees.size()) Die("re-parsed tree count differs");
  for (size_t i = 0; i < trees.size(); ++i) {
    if (!(parsed[i] == trees[i])) {
      Die("re-parsed tree " + std::to_string(i) + " differs");
    }
  }
  uint64_t patterns = 0;
  for (const LabeledTree& tree : trees) {
    patterns += sketchtree::CountTreePatterns(tree, 4);
  }
  PrintJson({{"trees", static_cast<double>(trees.size())},
             {"bytes", static_cast<double>(xml.size())},
             {"patterns", static_cast<double>(patterns)}});
  return 0;
}

// Exact pattern counts under the CLI's mapping (same degree and seed).
sketchtree::ExactCounter CountExactly(const std::vector<LabeledTree>& trees) {
  const sketchtree::SketchTreeOptions cli = CliOptions(0);
  sketchtree::ExactCounter exact =
      std::move(sketchtree::ExactCounter::Create(cli.fingerprint_degree,
                                                 cli.seed))
          .value();
  for (const LabeledTree& tree : trees) {
    exact.Update(tree, cli.max_pattern_edges);
  }
  return exact;
}

// Fig. 10's workload construction: patterns of the stream itself whose
// exact counts fall in the given count bands.
int RunQueries(const Flags& f) {
  std::vector<LabeledTree> trees = ReadForest(f.Str("forest"));
  sketchtree::ExactCounter exact = CountExactly(trees);
  std::vector<sketchtree::SelectivityRange> ranges;
  std::stringstream bands(f.Str("bands"));
  std::vector<double> counts;
  std::string part;
  while (std::getline(bands, part, ',')) {
    counts.push_back(std::atof(part.c_str()));
  }
  const double total = static_cast<double>(exact.total_patterns());
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    ranges.push_back({counts[i] / total, counts[i + 1] / total});
  }
  sketchtree::WorkloadBuilder builder(&exact, ranges, f.Long("per-band"),
                                      f.Long("seed"));
  for (const LabeledTree& tree : trees) {
    builder.Collect(tree, 4);
    if (builder.Full()) break;
  }
  sketchtree::Workload workload = builder.Build();
  std::ofstream out(f.Str("out"));
  for (const sketchtree::WorkloadQuery& q : workload.queries) {
    out << "count_ord\t" << sketchtree::PatternToString(q.pattern) << '\t'
        << q.actual_count << '\n';
  }
  PrintJson({{"queries", static_cast<double>(workload.queries.size())},
             {"total_patterns", total}});
  return 0;
}

// A random pattern of a random tree with at least `min_edges` edges.
LabeledTree PickPattern(const std::vector<LabeledTree>& trees,
                        sketchtree::Pcg64& rng, int min_edges, int max_edges) {
  for (;;) {
    const LabeledTree& tree = trees[rng.NextBounded(trees.size())];
    LabeledTree picked;
    uint64_t seen = 0;
    sketchtree::EnumerateTreePatterns(
        tree, max_edges,
        [&](LabeledTree::NodeId root,
            const std::vector<sketchtree::PatternEdge>& edges) {
          if (static_cast<int>(edges.size()) < min_edges) return;
          if (rng.NextBounded(++seen) == 0) {
            picked = sketchtree::ExtractPattern(tree, root, edges);
          }
        });
    if (seen > 0) return picked;
  }
}

// Query pools drawn from the forest's own patterns, each written with its
// exact count. `mixed`: ordered, unordered (up to 4! = 24 arrangements at
// k = 4) and expression queries; `point`: cheap one- and two-edge ordered
// point queries.
int RunPool(const Flags& f) {
  std::vector<LabeledTree> trees = ReadForest(f.Str("forest"));
  sketchtree::ExactCounter exact = CountExactly(trees);
  sketchtree::Pcg64 rng(static_cast<uint64_t>(f.Long("seed")), 0x9001);
  const bool mixed = f.Str("mix") == "mixed";
  const size_t size = static_cast<size_t>(f.Long("size"));
  std::unordered_set<std::string> seen;
  std::ofstream out(f.Str("out"));
  // Pool position is popularity rank (the load generator's Zipf picks
  // index the file), so the kind follows the position: every seed gets the
  // same 50/35/15 ordered/unordered/expression mix at every rank.
  constexpr int kKindCycle[20] = {0, 1, 0, 2, 0, 1, 0, 1, 0, 1,
                                  0, 2, 0, 1, 0, 1, 0, 2, 0, 1};
  size_t kinds[3] = {0, 0, 0};
  while (seen.size() < size) {
    const int kind = mixed ? kKindCycle[seen.size() % 20] : 0;
    std::string line;
    int64_t actual = 0;
    if (kind == 0) {
      LabeledTree p = PickPattern(trees, rng, 1, mixed ? 4 : 2);
      line = "count_ord\t" + sketchtree::PatternToString(p);
      actual = static_cast<int64_t>(exact.CountOrdered(p));
    } else if (kind == 1) {
      LabeledTree p = PickPattern(trees, rng, 2, 4);
      line = "count\t" + sketchtree::PatternToString(p);
      actual = static_cast<int64_t>(exact.CountUnordered(p).value());
    } else {
      LabeledTree a = PickPattern(trees, rng, 1, 3);
      LabeledTree b = PickPattern(trees, rng, 1, 3);
      std::string sa = sketchtree::PatternToString(a);
      std::string sb = sketchtree::PatternToString(b);
      if (sa == sb) continue;
      int64_t ca = static_cast<int64_t>(exact.CountOrdered(a));
      int64_t cb = static_cast<int64_t>(exact.CountOrdered(b));
      const char* ops[] = {" + ", " - ", " * "};
      size_t op = rng.NextBounded(3);
      line = "expr\tCOUNT_ORD(" + sa + ")" + ops[op] + "COUNT_ORD(" + sb + ")";
      actual = op == 0 ? ca + cb : op == 1 ? ca - cb : ca * cb;
    }
    if (!seen.insert(line).second) continue;
    ++kinds[kind];
    out << line << '\t' << actual << '\n';
  }
  PrintJson({{"ordered", static_cast<double>(kinds[0])},
             {"unordered", static_cast<double>(kinds[1])},
             {"expression", static_cast<double>(kinds[2])}});
  return 0;
}

std::string FormatAnswer(const sketchtree::Result<sketchtree::QueryAnswer>& a) {
  if (!a.ok()) return "ERR " + a.status().ToString();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", a->estimate);
  return buf;
}

// The in-process answer of the program's own query path for each query.
int RunAnswer(const Flags& f) {
  sketchtree::Result<sketchtree::SketchTree> sketch =
      sketchtree::SketchTree::LoadFromFile(f.Str("synopsis"));
  if (!sketch.ok()) Die(sketch.status().ToString());
  sketchtree::Result<sketchtree::QueryService> service =
      sketchtree::QueryService::CreateStatic(std::move(sketch).value());
  if (!service.ok()) Die(service.status().ToString());
  std::ofstream out(f.Str("out"));
  for (const QueryLine& q : ReadQueries(f.Str("queries"))) {
    sketchtree::QueryRequest request;
    request.kind = KindOf(q.op);
    request.text = q.text;
    out << FormatAnswer(service->Execute(request)) << '\n';
  }
  return 0;
}

// What `serve --input` must answer at each epoch: a serial live synopsis
// published every --publish-every trees and once more at the end.
int RunLiveRef(const Flags& f) {
  std::vector<LabeledTree> trees = ReadForest(f.Str("forest"));
  std::vector<QueryLine> queries = ReadQueries(f.Str("queries"));
  const uint64_t every = static_cast<uint64_t>(f.Long("publish-every"));
  sketchtree::SketchTreeOptions options = CliOptions(f.Long("topk"));
  sketchtree::SketchTree live =
      std::move(sketchtree::SketchTree::Create(options)).value();
  sketchtree::SnapshotPublisher publisher;
  sketchtree::QueryService service =
      std::move(sketchtree::QueryService::Create(options, {}, &publisher))
          .value();
  std::ofstream out(f.Str("out"));
  auto publish = [&](uint64_t trees_done) {
    if (!publisher.PublishCopyOf(live).ok()) Die("publish failed");
    for (size_t i = 0; i < queries.size(); ++i) {
      sketchtree::QueryRequest request;
      request.kind = KindOf(queries[i].op);
      request.text = queries[i].text;
      out << trees_done << '\t' << i << '\t'
          << FormatAnswer(service.Execute(request)) << '\n';
    }
  };
  publish(0);
  uint64_t done = 0;
  for (const LabeledTree& tree : trees) {
    live.Update(tree);
    if (++done % every == 0) publish(done);
  }
  if (done % every != 0) publish(done);
  return 0;
}

}  // namespace

sketchtree::QueryKind KindOf(const std::string& op) {
  if (op == "count_ord") return sketchtree::QueryKind::kOrdered;
  if (op == "count") return sketchtree::QueryKind::kUnordered;
  if (op == "expr") return sketchtree::QueryKind::kExpression;
  Die("unknown query op " + op);
}

std::vector<LabeledTree> GenerateForest(const std::string& dataset, long n,
                                        long seed) {
  std::vector<LabeledTree> trees;
  trees.reserve(static_cast<size_t>(n));
  if (dataset == "treebank") {
    sketchtree::TreebankGenOptions options;
    options.seed = static_cast<uint64_t>(seed);
    sketchtree::TreebankGenerator gen(options);
    for (long i = 0; i < n; ++i) trees.push_back(gen.Next());
  } else if (dataset == "dblp") {
    sketchtree::DblpGenOptions options;
    options.seed = static_cast<uint64_t>(seed);
    sketchtree::DblpGenerator gen(options);
    for (long i = 0; i < n; ++i) trees.push_back(gen.Next());
  } else {
    Die("unknown dataset " + dataset);
  }
  return trees;
}

std::vector<LabeledTree> ReadForest(const std::string& path) {
  sketchtree::Result<std::vector<LabeledTree>> trees =
      sketchtree::ReadXmlForestFile(path);
  if (!trees.ok()) Die(path + ": " + trees.status().ToString());
  return std::move(trees).value();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: perfbench_tool SUBCOMMAND --flag value ...");
  std::string cmd = argv[1];
  Flags flags(argc, argv, 2);
  if (cmd == "gen") return RunGen(flags);
  if (cmd == "queries") return RunQueries(flags);
  if (cmd == "pool") return RunPool(flags);
  if (cmd == "answer") return RunAnswer(flags);
  if (cmd == "liveref") return RunLiveRef(flags);
  if (cmd == "loadgen") return RunLoadgen(flags);
  if (cmd == "replay") return RunReplay(flags);
  Die("unknown subcommand " + cmd);
}
