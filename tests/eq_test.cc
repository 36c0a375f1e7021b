#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "src/eq/compiler.h"
#include "src/eq/coordinator.h"
#include "src/eq/grounder.h"
#include "src/eq/safety.h"
#include "src/sql/parser.h"
#include "src/workload/travel_data.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using eq::Atom;
using eq::Compiler;
using eq::Coordinator;
using eq::EntangledQuerySpec;
using eq::EvalItem;
using eq::Grounder;
using eq::Grounding;
using eq::OutcomeKind;
using eq::TemplatesUnify;
using eq::Term;
using testing::EngineFixture;

/// Parses an entangled SQL statement and compiles it to IR.
StatusOr<EntangledQuerySpec> CompileSql(const std::string& text,
                                        const Database& db,
                                        const sql::VarEnv& vars,
                                        const std::string& label) {
  YT_ASSIGN_OR_RETURN(sql::ParsedStatement stmt,
                      sql::Parser::ParseStatement(text));
  if (stmt.kind != sql::StatementKind::kEntangledSelect) {
    return Status::InvalidArgument("not an entangled select");
  }
  return Compiler::Compile(*stmt.entangled, vars, db, label);
}

constexpr char kMickeyFlight[] =
    "SELECT 'Mickey', fno, fdate INTO ANSWER Reservation "
    "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA') "
    "AND ('Minnie', fno, fdate) IN ANSWER Reservation CHOOSE 1";

constexpr char kMinnieFlight[] =
    "SELECT 'Minnie', fno, fdate INTO ANSWER Reservation "
    "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights F, Airlines A "
    " WHERE F.dest='LA' AND F.fno=A.fno AND A.airline='United') "
    "AND ('Mickey', fno, fdate) IN ANSWER Reservation CHOOSE 1";

constexpr char kDonaldFlight[] =
    "SELECT 'Donald', fno, fdate INTO ANSWER Reservation "
    "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA') "
    "AND ('Daffy', fno, fdate) IN ANSWER Reservation CHOOSE 1";

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(workload::TravelData::BuildFigure1Tables(fix_.tm.get()));
  }
  EngineFixture fix_;
};

TEST_F(Figure1Test, CompileMickeyProducesFigure7Representation) {
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec q,
                       CompileSql(kMickeyFlight, fix_.db, {}, "Mickey"));
  ASSERT_EQ(q.head.size(), 1u);
  EXPECT_EQ(q.head[0].relation, "Reservation");
  ASSERT_EQ(q.head[0].terms.size(), 3u);
  EXPECT_FALSE(q.head[0].terms[0].is_var);
  EXPECT_EQ(q.head[0].terms[0].constant, Value::Str("Mickey"));
  EXPECT_TRUE(q.head[0].terms[1].is_var);
  EXPECT_TRUE(q.head[0].terms[2].is_var);
  ASSERT_EQ(q.post.size(), 1u);
  EXPECT_EQ(q.post[0].terms[0].constant, Value::Str("Minnie"));
  ASSERT_EQ(q.body.size(), 1u);
  EXPECT_EQ(q.body[0].relation, "Flights");
  // dest position must be the constant 'LA'.
  EXPECT_FALSE(q.body[0].terms[2].is_var);
  EXPECT_EQ(q.body[0].terms[2].constant, Value::Str("LA"));
}

TEST_F(Figure1Test, CompileMinnieJoinsAirlines) {
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec q,
                       CompileSql(kMinnieFlight, fix_.db, {}, "Minnie"));
  ASSERT_EQ(q.body.size(), 2u);
  EXPECT_EQ(q.body[0].relation, "Flights");
  EXPECT_EQ(q.body[1].relation, "Airlines");
  // F.fno and A.fno must have been unified into one variable.
  ASSERT_TRUE(q.body[0].terms[0].is_var);
  ASSERT_TRUE(q.body[1].terms[0].is_var);
  EXPECT_EQ(q.body[0].terms[0].var, q.body[1].terms[0].var);
  EXPECT_EQ(q.body[1].terms[1].constant, Value::Str("United"));
}

TEST_F(Figure1Test, GroundingsMatchFigure7b) {
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec mickey,
                       CompileSql(kMickeyFlight, fix_.db, {}, "Mickey"));
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec minnie,
                       CompileSql(kMinnieFlight, fix_.db, {}, "Minnie"));
  auto txn = fix_.tm->Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> gm,
                       Grounder::Ground(mickey, fix_.tm.get(), txn.get()));
  // Mickey grounds on flights 122, 123, 124 (Figure 7(b) rows 1-3).
  ASSERT_EQ(gm.size(), 3u);
  EXPECT_EQ(gm[0].heads[0].second,
            Row({Value::Str("Mickey"), Value::Int(122), Value::Int(503)}));
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> gn,
                       Grounder::Ground(minnie, fix_.tm.get(), txn.get()));
  // Minnie only grounds on the United flights 122, 123 (rows 4-5).
  ASSERT_EQ(gn.size(), 2u);
  EXPECT_EQ(gn[0].heads[0].second,
            Row({Value::Str("Minnie"), Value::Int(122), Value::Int(503)}));
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST_F(Figure1Test, ConstantAtomTermsGroundThroughIndex) {
  // Friends-style fully/partially constant atoms over an indexed relation
  // must ground via an indexed grounding cursor, with identical results to the scan
  // path.
  Schema fs({{"uid1", TypeId::kInt64}, {"uid2", TypeId::kInt64}});
  fs.set_primary_key({0, 1});
  ASSERT_OK(fix_.tm->CreateTable("Friends", fs).status());
  auto setup = fix_.tm->Begin();
  for (int64_t a = 1; a <= 4; ++a) {
    for (int64_t b = a + 1; b <= 4; ++b) {
      ASSERT_OK(fix_.tm->Insert(setup.get(), "Friends",
                                Row({Value::Int(a), Value::Int(b)}))
                    .status());
    }
  }
  ASSERT_OK(fix_.tm->Commit(setup.get()));

  EntangledQuerySpec q;
  q.label = "friends-probe";
  Atom body;
  body.relation = "Friends";
  body.terms = {Term::Const(Value::Int(2)), Term::Const(Value::Int(3))};
  q.body.push_back(body);
  Atom head;
  head.relation = "R";
  head.terms = {Term::Const(Value::Str("ok"))};
  q.head.push_back(head);

  auto txn = fix_.tm->Begin();
  uint64_t lookups = fix_.tm->stats().grounding_index_lookups.load();
  uint64_t scans = fix_.tm->stats().grounding_scans.load();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> g,
                       Grounder::Ground(q, fix_.tm.get(), txn.get()));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(fix_.tm->stats().grounding_index_lookups.load(), lookups + 1);
  EXPECT_EQ(fix_.tm->stats().grounding_scans.load(), scans);

  // A variable atom position demotes to a grounding scan when no index
  // covers the remaining constants.
  EntangledQuerySpec qv = q;
  qv.body[0].terms = {Term::Const(Value::Int(2)), Term::Var("x")};
  qv.head[0].terms = {Term::Var("x")};
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> gv,
                       Grounder::Ground(qv, fix_.tm.get(), txn.get()));
  EXPECT_EQ(gv.size(), 2u);  // (2,3) and (2,4)
  EXPECT_EQ(fix_.tm->stats().grounding_scans.load(), scans + 1);
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST_F(Figure1Test, CoordinatorAnswersMickeyAndMinnieConsistently) {
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec mickey,
                       CompileSql(kMickeyFlight, fix_.db, {}, "Mickey"));
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec minnie,
                       CompileSql(kMinnieFlight, fix_.db, {}, "Minnie"));
  auto txn = fix_.tm->Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> gm,
                       Grounder::Ground(mickey, fix_.tm.get(), txn.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> gn,
                       Grounder::Ground(minnie, fix_.tm.get(), txn.get()));
  std::vector<EvalItem> items(2);
  items[0].spec = &mickey;
  items[0].txn = 1;
  items[0].groundings = gm;
  items[1].spec = &minnie;
  items[1].txn = 2;
  items[1].groundings = gn;
  eq::EvalResult result = Coordinator::Evaluate(items, 1);

  ASSERT_EQ(result.outcomes[0].kind, OutcomeKind::kAnswered);
  ASSERT_EQ(result.outcomes[1].kind, OutcomeKind::kAnswered);
  // Both answers name the same flight and date (mutual constraint
  // satisfaction, Figure 1(b)); flight 124 (USAir) is never chosen.
  const Row& am = result.outcomes[0].answers[0].second;
  const Row& an = result.outcomes[1].answers[0].second;
  EXPECT_EQ(am[1], an[1]);
  EXPECT_EQ(am[2], an[2]);
  EXPECT_TRUE(am[1] == Value::Int(122) || am[1] == Value::Int(123));
  // One entanglement operation covering both queries.
  ASSERT_EQ(result.operations.size(), 1u);
  EXPECT_EQ(result.operations[0].second.size(), 2u);
  EXPECT_NE(result.outcomes[0].eid, 0u);
  EXPECT_EQ(result.outcomes[0].eid, result.outcomes[1].eid);
  // The answer relation contains exactly the two chosen tuples.
  ASSERT_EQ(result.answer_relations.count("Reservation"), 1u);
  EXPECT_EQ(result.answer_relations.at("Reservation").size(), 2u);
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST_F(Figure1Test, DonaldWithoutDaffyIsNoPartner) {
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec mickey,
                       CompileSql(kMickeyFlight, fix_.db, {}, "Mickey"));
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec minnie,
                       CompileSql(kMinnieFlight, fix_.db, {}, "Minnie"));
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec donald,
                       CompileSql(kDonaldFlight, fix_.db, {}, "Donald"));
  auto txn = fix_.tm->Begin();
  std::vector<EvalItem> items(3);
  items[0].spec = &mickey;
  items[1].spec = &minnie;
  items[2].spec = &donald;
  for (auto& item : items) {
    ASSERT_OK_AND_ASSIGN(item.groundings,
                         Grounder::Ground(*item.spec, fix_.tm.get(),
                                          txn.get()));
  }
  eq::EvalResult result = Coordinator::Evaluate(items, 1);
  EXPECT_EQ(result.outcomes[0].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[1].kind, OutcomeKind::kAnswered);
  // Appendix B: no combined query can be formulated for Donald, so his
  // query *fails* (he must wait) rather than succeeding with empty answer.
  EXPECT_EQ(result.outcomes[2].kind, OutcomeKind::kNoPartner);
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST_F(Figure1Test, FormableButUnmatchedGroundingsGiveEmptySuccess) {
  // Mickey wants Paris, Minnie wants LA: templates unify (same relation,
  // same partner structure) but no coordinating set exists on this data.
  ASSERT_OK_AND_ASSIGN(
      EntangledQuerySpec mickey,
      CompileSql("SELECT 'Mickey', fno, fdate INTO ANSWER Reservation "
                 "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights "
                 "WHERE dest='Paris') "
                 "AND ('Minnie', fno, fdate) IN ANSWER Reservation CHOOSE 1",
                 fix_.db, {}, "Mickey"));
  ASSERT_OK_AND_ASSIGN(EntangledQuerySpec minnie,
                       CompileSql(kMinnieFlight, fix_.db, {}, "Minnie"));
  auto txn = fix_.tm->Begin();
  std::vector<EvalItem> items(2);
  items[0].spec = &mickey;
  items[1].spec = &minnie;
  for (auto& item : items) {
    ASSERT_OK_AND_ASSIGN(item.groundings,
                         Grounder::Ground(*item.spec, fix_.tm.get(),
                                          txn.get()));
  }
  eq::EvalResult result = Coordinator::Evaluate(items, 1);
  EXPECT_EQ(result.outcomes[0].kind, OutcomeKind::kEmptySuccess);
  EXPECT_EQ(result.outcomes[1].kind, OutcomeKind::kEmptySuccess);
  EXPECT_TRUE(result.operations.empty());
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST(TemplateUnifyTest, ConstantsMustAgree) {
  Atom a{"R", {Term::Const(Value::Str("x")), Term::Var("v")}};
  Atom b{"R", {Term::Const(Value::Str("x")), Term::Const(Value::Int(1))}};
  Atom c{"R", {Term::Const(Value::Str("y")), Term::Var("w")}};
  Atom d{"S", {Term::Const(Value::Str("x")), Term::Var("v")}};
  Atom e{"R", {Term::Const(Value::Str("x"))}};
  EXPECT_TRUE(TemplatesUnify(a, b));
  EXPECT_FALSE(TemplatesUnify(a, c));  // 'x' vs 'y'
  EXPECT_FALSE(TemplatesUnify(a, d));  // different relation
  EXPECT_FALSE(TemplatesUnify(a, e));  // different arity
}

TEST(FormableTest, PairMutualAndLonerDetected) {
  EntangledQuerySpec qa, qb, loner;
  qa.label = "a";
  qa.head = {{"R", {Term::Const(Value::Str("a"))}}};
  qa.post = {{"R", {Term::Const(Value::Str("b"))}}};
  qb.label = "b";
  qb.head = {{"R", {Term::Const(Value::Str("b"))}}};
  qb.post = {{"R", {Term::Const(Value::Str("a"))}}};
  loner.label = "loner";
  loner.head = {{"R", {Term::Const(Value::Str("c"))}}};
  loner.post = {{"R", {Term::Const(Value::Str("zz"))}}};
  auto formable = eq::ComputeFormable({&qa, &qb, &loner});
  EXPECT_TRUE(formable[0]);
  EXPECT_TRUE(formable[1]);
  EXPECT_FALSE(formable[2]);
}

TEST(FormableTest, ChainCollapsesWhenTailMissing) {
  // a needs b, b needs c, c needs nobody-present: greatest fixpoint kills
  // the whole chain except c's trivially-formable tail... c itself needs zz.
  EntangledQuerySpec qa, qb, qc;
  qa.head = {{"R", {Term::Const(Value::Str("a"))}}};
  qa.post = {{"R", {Term::Const(Value::Str("b"))}}};
  qb.head = {{"R", {Term::Const(Value::Str("b"))}}};
  qb.post = {{"R", {Term::Const(Value::Str("c"))}}};
  qc.head = {{"R", {Term::Const(Value::Str("c"))}}};
  qc.post = {{"R", {Term::Const(Value::Str("zz"))}}};
  auto formable = eq::ComputeFormable({&qa, &qb, &qc});
  EXPECT_FALSE(formable[0]);
  EXPECT_FALSE(formable[1]);
  EXPECT_FALSE(formable[2]);
}

TEST(CoordinatorTest, CyclicRingEntanglesAsOneOperation) {
  // Three queries in a ring: q_i's post is satisfied by q_{i+1}'s head.
  std::vector<EntangledQuerySpec> specs(3);
  std::vector<EvalItem> items(3);
  for (int i = 0; i < 3; ++i) {
    specs[i].label = "ring" + std::to_string(i);
    specs[i].head = {
        {"C", {Term::Const(Value::Int(i))}}};
    specs[i].post = {
        {"C", {Term::Const(Value::Int((i + 1) % 3))}}};
    Grounding g;
    g.heads = {{"C", Row({Value::Int(i)})}};
    g.posts = {{"C", Row({Value::Int((i + 1) % 3)})}};
    items[i].spec = &specs[i];
    items[i].txn = i + 1;
    items[i].groundings = {g};
  }
  eq::EvalResult result = Coordinator::Evaluate(items, 7);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.outcomes[i].kind, OutcomeKind::kAnswered);
    EXPECT_EQ(result.outcomes[i].eid, 7u);
  }
  ASSERT_EQ(result.operations.size(), 1u);
  EXPECT_EQ(result.operations[0].second.size(), 3u);
}

TEST(CoordinatorTest, MaximizesAnsweredQueries) {
  // Two disjoint pairs plus one loner: both pairs answered, loner not.
  std::vector<EntangledQuerySpec> specs(5);
  std::vector<EvalItem> items(5);
  auto mk = [&](int i, const std::string& me, const std::string& want) {
    specs[i].label = me;
    specs[i].head = {{"R", {Term::Const(Value::Str(me))}}};
    specs[i].post = {{"R", {Term::Const(Value::Str(want))}}};
    Grounding g;
    g.heads = {{"R", Row({Value::Str(me)})}};
    g.posts = {{"R", Row({Value::Str(want)})}};
    items[i].spec = &specs[i];
    items[i].txn = i + 1;
    items[i].groundings = {g};
  };
  mk(0, "a", "b");
  mk(1, "b", "a");
  mk(2, "c", "d");
  mk(3, "d", "c");
  mk(4, "e", "nobody");
  eq::EvalResult result = Coordinator::Evaluate(items, 1);
  EXPECT_EQ(result.outcomes[0].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[1].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[2].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[3].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[4].kind, OutcomeKind::kNoPartner);
  EXPECT_EQ(result.operations.size(), 2u);
  // Distinct entanglement ids per operation.
  EXPECT_NE(result.outcomes[0].eid, result.outcomes[2].eid);
}

TEST(CoordinatorTest, EmptyBodyQueriesCoordinate) {
  // Pure-coordination queries (no database body), as used by the Fig 6(c)
  // structures.
  EntangledQuerySpec qa, qb;
  qa.head = {{"Coord", {Term::Const(Value::Str("h")),
                        Term::Const(Value::Str("s"))}}};
  qa.post = {{"Coord", {Term::Const(Value::Str("s")),
                        Term::Const(Value::Str("h"))}}};
  qb.head = qa.post;
  qb.post = qa.head;
  EngineFixture fix;
  auto txn = fix.tm->Begin();
  std::vector<EvalItem> items(2);
  items[0].spec = &qa;
  items[1].spec = &qb;
  for (auto& item : items) {
    ASSERT_OK_AND_ASSIGN(
        item.groundings,
        Grounder::Ground(*item.spec, fix.tm.get(), txn.get()));
    EXPECT_EQ(item.groundings.size(), 1u);
  }
  eq::EvalResult result = Coordinator::Evaluate(items, 1);
  EXPECT_EQ(result.outcomes[0].kind, OutcomeKind::kAnswered);
  EXPECT_EQ(result.outcomes[1].kind, OutcomeKind::kAnswered);
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(IrTest, RangeRestrictionEnforced) {
  EntangledQuerySpec q;
  q.label = "bad";
  q.head = {{"R", {Term::Var("x")}}};
  // x never appears in the body.
  EXPECT_FALSE(q.Validate().ok());
  q.body = {{"T", {Term::Var("x")}}};
  EXPECT_OK(q.Validate());
  q.post = {{"R", {Term::Var("y")}}};
  EXPECT_FALSE(q.Validate().ok());
}

TEST(IrTest, ChooseOtherThanOneUnsupported) {
  EntangledQuerySpec q;
  q.head = {{"R", {Term::Const(Value::Int(1))}}};
  q.choose = 2;
  EXPECT_EQ(q.Validate().code(), StatusCode::kUnimplemented);
}

TEST(GrounderTest, ResidualPredicatesFilterValuations) {
  EngineFixture fix;
  ASSERT_OK_AND_ASSIGN(Table * t,
                       fix.tm->CreateTable("Nums", Schema({{"n",
                                                            TypeId::kInt64}})));
  for (int i = 1; i <= 10; ++i) {
    ASSERT_OK(t->Insert(Row({Value::Int(i)})).status());
  }
  EntangledQuerySpec q;
  q.label = "preds";
  q.head = {{"R", {Term::Var("x")}}};
  q.body = {{"Nums", {Term::Var("x")}}};
  q.preds = {{Term::Var("x"), ">", Term::Const(Value::Int(3))},
             {Term::Var("x"), "<=", Term::Const(Value::Int(6))}};
  auto txn = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> g,
                       Grounder::Ground(q, fix.tm.get(), txn.get()));
  ASSERT_EQ(g.size(), 3u);  // 4, 5, 6
  EXPECT_EQ(g[0].heads[0].second, Row({Value::Int(4)}));
  EXPECT_EQ(g[2].heads[0].second, Row({Value::Int(6)}));
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

/// Builds the paper-style entangled body Friends(x,y), User(x,c), User(y,c)
/// over seeded random tables; User carries a primary key so the two User
/// atoms are probe-eligible once x/y are bound by the Friends scan.
class GrounderProbeTest : public ::testing::Test {
 protected:
  /// Short lock timeout: on a 1-cpu box the reader's table locks and the
  /// concurrent writer otherwise stall each other for the full 2 s default
  /// per collision; both sides already treat lock failures as a retry.
  static TransactionManager::Options FastTimeoutOptions() {
    TransactionManager::Options options;
    options.lock_timeout_micros = 100'000;
    return options;
  }
  GrounderProbeTest() : fix_(FastTimeoutOptions()) {}

  void SetUp() override {
    Schema user({{"uid", TypeId::kInt64}, {"hometown", TypeId::kString}});
    user.set_primary_key({0});
    ASSERT_OK(fix_.tm->CreateTable("User", user).status());
    ASSERT_OK(fix_.tm
                  ->CreateTable("Friends",
                                Schema({{"uid1", TypeId::kInt64},
                                        {"uid2", TypeId::kInt64}}))
                  .status());
    std::mt19937 rng(20260728);
    const char* cities[] = {"LA", "NY", "SF"};
    auto setup = fix_.tm->Begin();
    for (int64_t uid = 0; uid < 60; ++uid) {
      ASSERT_OK(fix_.tm
                    ->Insert(setup.get(), "User",
                             Row({Value::Int(uid),
                                  Value::Str(cities[rng() % 3])}))
                    .status());
    }
    for (int e = 0; e < 150; ++e) {
      ASSERT_OK(fix_.tm
                    ->Insert(setup.get(), "Friends",
                             Row({Value::Int(static_cast<int64_t>(rng() % 60)),
                                  Value::Int(static_cast<int64_t>(rng() % 60))}))
                    .status());
    }
    ASSERT_OK(fix_.tm->Commit(setup.get()));

    spec_.label = "pair";
    spec_.body = {
        {"Friends", {Term::Var("x"), Term::Var("y")}},
        {"User", {Term::Var("x"), Term::Var("c")}},
        {"User", {Term::Var("y"), Term::Var("c")}}};
    spec_.head = {{"Pair", {Term::Var("x"), Term::Var("y")}}};
    spec_.post = {{"Pair", {Term::Var("y"), Term::Var("x")}}};
  }

  static std::vector<std::string> Render(const std::vector<Grounding>& gs) {
    std::vector<std::string> out;
    out.reserve(gs.size());
    for (const Grounding& g : gs) out.push_back(g.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

  EngineFixture fix_;
  EntangledQuerySpec spec_;
};

TEST_F(GrounderProbeTest, BindDrivenProbesMatchSnapshotGroundings) {
  auto txn = fix_.tm->Begin();
  auto& stats = fix_.tm->stats();
  uint64_t probes = stats.grounding_join_probes.load();
  uint64_t scans = stats.grounding_scans.load();
  uint64_t grounding_hits = stats.grounding_join_probe_cache_hits.load();
  uint64_t sql_hits = stats.join_probe_cache_hits.load();
  Grounder::Options probe_opts;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> probed,
      Grounder::Ground(spec_, fix_.tm.get(), txn.get(), probe_opts));
  // Friends is the (all-variable) driving scan; both User atoms probe.
  EXPECT_EQ(stats.grounding_scans.load(), scans + 1);
  EXPECT_GT(stats.grounding_join_probes.load(), probes);
  uint64_t probes_after = stats.grounding_join_probes.load();
  // 150 edges over 60 users repeat x bindings: the repeats hit the cache,
  // counted under the grounding origin only.
  EXPECT_GT(stats.grounding_join_probe_cache_hits.load(), grounding_hits);
  EXPECT_EQ(stats.join_probe_cache_hits.load(), sql_hits);

  Grounder::Options snap_opts;
  snap_opts.use_index_probes = false;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> snapped,
      Grounder::Ground(spec_, fix_.tm.get(), txn.get(), snap_opts));
  EXPECT_EQ(stats.grounding_join_probes.load(), probes_after);
  EXPECT_EQ(stats.grounding_scans.load(), scans + 4);  // all three atoms scan

  EXPECT_FALSE(probed.empty());
  EXPECT_EQ(Render(probed), Render(snapped));
  ASSERT_OK(fix_.tm->Commit(txn.get()));
}

TEST_F(GrounderProbeTest, ProbeGroundingStableUnderConcurrentWriters) {
  // Writers keep growing both relations with uids >= 1000 while each reader
  // round grounds the body twice — probes, then snapshots — inside one
  // transaction. Strict 2PL pins the read set between the two, so the
  // grounding lists must match exactly every round.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t next = 1000;
    // Bounded growth: the snapshot grounding is O(|Friends| * |User|), so
    // an unthrottled writer would make later rounds quadratically slower.
    while (!stop.load() && next < 1400) {
      ++next;
      auto txn = fix_.tm->Begin();
      // Friends first, the table the reader also locks first: with the
      // opposite order a writer holding User IX waits on the reader's
      // Friends S while the reader waits on User S, and the reader loses
      // that deadlock every round on a multi-core box.
      Status s = fix_.tm
                     ->Insert(txn.get(), "Friends",
                              Row({Value::Int(next), Value::Int(next - 1)}))
                     .status();
      if (s.ok()) {
        s = fix_.tm
                ->Insert(txn.get(), "User",
                         Row({Value::Int(next), Value::Str("LA")}))
                .status();
      }
      if (s.ok()) {
        (void)fix_.tm->Commit(txn.get());
      } else {
        (void)fix_.tm->Abort(txn.get());  // lock timeout under reader locks
      }
    }
  });

  Grounder::Options snap_opts;
  snap_opts.use_index_probes = false;
  int compared = 0;
  for (int round = 0; round < 30 && compared < 10; ++round) {
    auto txn = fix_.tm->Begin();
    auto probed = Grounder::Ground(spec_, fix_.tm.get(), txn.get());
    auto snapped =
        Grounder::Ground(spec_, fix_.tm.get(), txn.get(), snap_opts);
    if (!probed.ok() || !snapped.ok()) {
      (void)fix_.tm->Abort(txn.get());  // timed out against a writer: retry
      continue;
    }
    EXPECT_EQ(Render(probed.value()), Render(snapped.value()))
        << "divergence in round " << round;
    ASSERT_OK(fix_.tm->Commit(txn.get()));
    ++compared;
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(compared, 0) << "every round timed out; nothing was compared";
}

TEST(GrounderTest, NullBindingsProbeLikeAnyOtherValue) {
  // Valuation unification matches NULL against NULL (unlike SQL `=`), and
  // the hash index stores NULL-keyed rows — the probe path must agree with
  // the snapshot path on NULL data instead of skipping the binding.
  EngineFixture fix;
  ASSERT_OK(fix.tm
                ->CreateTable("FriendsN", Schema({{"uid1", TypeId::kInt64},
                                                  {"uid2", TypeId::kInt64}}))
                .status());
  ASSERT_OK(fix.tm
                ->CreateTable("UserN", Schema({{"uid", TypeId::kInt64},
                                               {"town", TypeId::kString}}))
                .status());
  ASSERT_OK(fix.tm->CreateIndex("UserN", {"uid"}));
  auto setup = fix.tm->Begin();
  ASSERT_OK(fix.tm
                ->Insert(setup.get(), "FriendsN",
                         Row({Value::Int(7), Value::Null()}))
                .status());
  ASSERT_OK(fix.tm
                ->Insert(setup.get(), "FriendsN",
                         Row({Value::Int(7), Value::Int(8)}))
                .status());
  ASSERT_OK(fix.tm
                ->Insert(setup.get(), "UserN",
                         Row({Value::Null(), Value::Str("LA")}))
                .status());
  ASSERT_OK(fix.tm
                ->Insert(setup.get(), "UserN",
                         Row({Value::Int(8), Value::Str("NY")}))
                .status());
  ASSERT_OK(fix.tm->Commit(setup.get()));

  EntangledQuerySpec q;
  q.label = "null-probe";
  q.body = {{"FriendsN", {Term::Var("x"), Term::Var("y")}},
            {"UserN", {Term::Var("y"), Term::Var("c")}}};
  q.head = {{"R", {Term::Var("x"), Term::Var("c")}}};

  auto txn = fix.tm->Begin();
  uint64_t probes = fix.tm->stats().grounding_join_probes.load();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> probed,
                       Grounder::Ground(q, fix.tm.get(), txn.get()));
  EXPECT_GT(fix.tm->stats().grounding_join_probes.load(), probes);
  Grounder::Options snap_opts;
  snap_opts.use_index_probes = false;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> snapped,
      Grounder::Ground(q, fix.tm.get(), txn.get(), snap_opts));
  ASSERT_EQ(probed.size(), 2u);  // the NULL edge grounds too
  EXPECT_EQ(probed, snapped);
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(GrounderTest, RangeProbesMatchSnapshotGroundings) {
  // The ROADMAP follow-on shape: Flights(y, p) with an ordered index on its
  // first column and the body predicate `y > x` — each outer binding of x
  // drives a per-binding range probe `y in (x, +inf)` under a key-range S
  // lock instead of a grounding table scan.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("Cuts", Schema({{"x", TypeId::kInt64}}))
                .status());
  ASSERT_OK(fix.tm
                ->CreateTable("Vals", Schema({{"y", TypeId::kInt64},
                                              {"p", TypeId::kInt64}}))
                .status());
  ASSERT_OK(fix.tm->CreateIndex("Vals", {"y"}, /*unique=*/false,
                                /*ordered=*/true));
  auto setup = fix.tm->Begin();
  for (int64_t x : {10, 50, 90}) {
    ASSERT_OK(
        fix.tm->Insert(setup.get(), "Cuts", Row({Value::Int(x)})).status());
  }
  for (int64_t y = 0; y < 100; y += 7) {
    ASSERT_OK(fix.tm
                  ->Insert(setup.get(), "Vals",
                           Row({Value::Int(y), Value::Int(y * 2)}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  EntangledQuerySpec q;
  q.label = "range-probe";
  q.body = {{"Cuts", {Term::Var("x")}},
            {"Vals", {Term::Var("y"), Term::Var("p")}}};
  q.preds = {{Term::Var("y"), ">", Term::Var("x")}};
  q.head = {{"R", {Term::Var("x"), Term::Var("y")}}};

  auto txn = fix.tm->Begin();
  auto& stats = fix.tm->stats();
  uint64_t range_probes = stats.grounding_range_probes.load();
  uint64_t scans = stats.grounding_scans.load();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> probed,
                       Grounder::Ground(q, fix.tm.get(), txn.get()));
  EXPECT_EQ(stats.grounding_scans.load(), scans + 1);  // only Cuts scans
  EXPECT_EQ(stats.grounding_range_probes.load(), range_probes + 3);
  Grounder::Options snap_opts;
  snap_opts.use_index_probes = false;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> snapped,
      Grounder::Ground(q, fix.tm.get(), txn.get(), snap_opts));
  EXPECT_FALSE(probed.empty());
  auto render = [](const std::vector<Grounding>& gs) {
    std::vector<std::string> out;
    for (const Grounding& g : gs) out.push_back(g.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(probed), render(snapped));
  // A constant range predicate bounds the other side too.
  EntangledQuerySpec q2 = {};
  q2.label = "range-probe-2";
  q2.body = q.body;
  q2.preds = {{Term::Var("y"), ">", Term::Var("x")},
              {Term::Var("y"), "<=", Term::Const(Value::Int(60))}};
  q2.head = q.head;
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> probed2,
                       Grounder::Ground(q2, fix.tm.get(), txn.get()));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> snapped2,
      Grounder::Ground(q2, fix.tm.get(), txn.get(), snap_opts));
  EXPECT_EQ(render(probed2), render(snapped2));

  // A *constant-only* range predicate has no per-binding part, so the atom
  // fetches eagerly — through one interval read, not a grounding scan.
  EntangledQuerySpec q3 = {};
  q3.label = "range-eager";
  q3.body = {{"Vals", {Term::Var("y"), Term::Var("p")}}};
  q3.preds = {{Term::Var("y"), ">", Term::Const(Value::Int(40))}};
  q3.head = {{"R", {Term::Var("y"), Term::Var("p")}}};
  uint64_t eager_ranges = stats.grounding_range_lookups.load();
  uint64_t scans_before_eager = stats.grounding_scans.load();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> eager,
                       Grounder::Ground(q3, fix.tm.get(), txn.get()));
  EXPECT_EQ(stats.grounding_range_lookups.load(), eager_ranges + 1);
  EXPECT_EQ(stats.grounding_scans.load(), scans_before_eager);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> eager_snap,
      Grounder::Ground(q3, fix.tm.get(), txn.get(), snap_opts));
  EXPECT_EQ(eager.size(), 9u);  // y in {42, 49, ..., 98}
  EXPECT_EQ(render(eager), render(eager_snap));
  ASSERT_OK(fix.tm->Commit(txn.get()));

  // NULL on the equality prefix of a range probe: an ordered index on
  // (a, y), `a` bound to NULL by the earlier atom, and `y > x`. Unification
  // matches NULL with NULL, so the probe must keep NULL-keyed prefix rows
  // (only the range column filters NULLs).
  ASSERT_OK(fix.tm
                ->CreateTable("CutsN", Schema({{"a", TypeId::kInt64},
                                               {"x", TypeId::kInt64}}))
                .status());
  ASSERT_OK(fix.tm
                ->CreateTable("ValsN", Schema({{"a", TypeId::kInt64},
                                               {"y", TypeId::kInt64}}))
                .status());
  ASSERT_OK(fix.tm->CreateIndex("ValsN", {"a", "y"}, /*unique=*/false,
                                /*ordered=*/true));
  auto setup_n = fix.tm->Begin();
  for (const auto& [a, x] : std::vector<std::pair<Value, int64_t>>{
           {Value::Null(), 10}, {Value::Int(1), 10}}) {
    ASSERT_OK(fix.tm
                  ->Insert(setup_n.get(), "CutsN", Row({a, Value::Int(x)}))
                  .status());
  }
  for (const auto& [a, y] : std::vector<std::pair<Value, Value>>{
           {Value::Null(), Value::Int(5)},
           {Value::Null(), Value::Int(20)},
           {Value::Null(), Value::Null()},
           {Value::Int(1), Value::Int(30)},
           {Value::Int(1), Value::Int(3)},
           {Value::Int(2), Value::Int(40)}}) {
    ASSERT_OK(
        fix.tm->Insert(setup_n.get(), "ValsN", Row({a, y})).status());
  }
  ASSERT_OK(fix.tm->Commit(setup_n.get()));
  EntangledQuerySpec qn;
  qn.label = "range-probe-null-prefix";
  qn.body = {{"CutsN", {Term::Var("a"), Term::Var("x")}},
             {"ValsN", {Term::Var("a"), Term::Var("y")}}};
  qn.preds = {{Term::Var("y"), ">", Term::Var("x")}};
  qn.head = {{"R", {Term::Var("a"), Term::Var("y")}}};
  auto txn_n = fix.tm->Begin();
  uint64_t range_probes_n = stats.grounding_range_probes.load();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> probed_n,
                       Grounder::Ground(qn, fix.tm.get(), txn_n.get()));
  EXPECT_EQ(stats.grounding_range_probes.load(), range_probes_n + 2);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Grounding> snapped_n,
      Grounder::Ground(qn, fix.tm.get(), txn_n.get(), snap_opts));
  EXPECT_EQ(probed_n.size(), 2u);  // (NULL, 20) and (1, 30)
  EXPECT_EQ(render(probed_n), render(snapped_n));
  ASSERT_OK(fix.tm->Commit(txn_n.get()));
}

TEST(GrounderTest, UnsatisfiableBodyGroundsEmpty) {
  EngineFixture fix;
  EntangledQuerySpec q;
  q.head = {{"R", {Term::Const(Value::Int(1))}}};
  q.body_unsatisfiable = true;
  auto txn = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Grounding> g,
                       Grounder::Ground(q, fix.tm.get(), txn.get()));
  EXPECT_TRUE(g.empty());
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(CompilerTest, HostVariablesSubstituteAsConstants) {
  EngineFixture fix;
  ASSERT_OK(workload::TravelData::BuildFigure1Tables(fix.tm.get()));
  sql::VarEnv vars;
  vars["arrivalday"] = Value::Int(503);
  ASSERT_OK_AND_ASSIGN(
      EntangledQuerySpec q,
      CompileSql("SELECT 'Mickey', hid, @ArrivalDay INTO ANSWER HotelRes "
                 "WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA') "
                 "AND ('Minnie', hid, @ArrivalDay) IN ANSWER HotelRes "
                 "CHOOSE 1",
                 fix.db, vars, "hotel"));
  ASSERT_EQ(q.head[0].terms.size(), 3u);
  EXPECT_EQ(q.head[0].terms[2].constant, Value::Int(503));
  EXPECT_EQ(q.post[0].terms[2].constant, Value::Int(503));
}

TEST(CompilerTest, AnswerBindingsRecorded) {
  EngineFixture fix;
  ASSERT_OK(workload::TravelData::BuildFigure1Tables(fix.tm.get()));
  ASSERT_OK_AND_ASSIGN(
      EntangledQuerySpec q,
      CompileSql("SELECT 'Mickey', fno, fdate AS @ArrivalDay "
                 "INTO ANSWER FlightRes "
                 "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights "
                 "WHERE dest='LA') "
                 "AND ('Minnie', fno, fdate) IN ANSWER FlightRes CHOOSE 1",
                 fix.db, {}, "flight"));
  ASSERT_EQ(q.answer_bindings.size(), 1u);
  EXPECT_EQ(q.answer_bindings[0].term_index, 2u);
  EXPECT_EQ(q.answer_bindings[0].var, "arrivalday");
}

TEST(CompilerTest, RejectsOrInWhere) {
  EngineFixture fix;
  ASSERT_OK(workload::TravelData::BuildFigure1Tables(fix.tm.get()));
  auto result =
      CompileSql("SELECT 'M', fno INTO ANSWER R "
                 "WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') "
                 "OR ('N', fno) IN ANSWER R CHOOSE 1",
                 fix.db, {}, "bad");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace youtopia
