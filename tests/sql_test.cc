#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "src/sql/planner.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using sql::Lex;
using sql::ParsedStatement;
using sql::Parser;
using sql::Session;
using sql::StatementKind;
using sql::Token;
using sql::TokenKind;
using testing::EngineFixture;

TEST(LexerTest, TokenKinds) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> toks,
                       Lex("SELECT 'a''b', 42, 3.5, @v FROM t -- comment\n"
                           "WHERE x <= 2 AND y <> 3"));
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].kind, TokenKind::kString);
  EXPECT_EQ(toks[1].literal, Value::Str("a'b"));
  EXPECT_EQ(toks[3].literal, Value::Int(42));
  EXPECT_EQ(toks[5].literal, Value::Double(3.5));
  EXPECT_EQ(toks[7].kind, TokenKind::kHostVar);
  EXPECT_EQ(toks[7].text, "v");
  // Multi-char operators survive.
  bool saw_le = false, saw_ne = false;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kSymbol && t.text == "<=") saw_le = true;
    if (t.kind == TokenKind::kSymbol && t.text == "<>") saw_ne = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_ne);
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("SELECT 'unterminated").ok());
  EXPECT_FALSE(Lex("SELECT @ FROM t").ok());
  EXPECT_FALSE(Lex("SELECT a ? b").ok());
}

TEST(ParserTest, SelectWithJoinAliasesAndLimit) {
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement s,
      Parser::ParseStatement(
          "SELECT u1.uid, u2.hometown AS town FROM User u1, User AS u2 "
          "WHERE u1.uid = u2.uid AND u1.uid > 3 LIMIT 5"));
  ASSERT_EQ(s.kind, StatementKind::kSelect);
  EXPECT_EQ(s.select->items.size(), 2u);
  EXPECT_EQ(s.select->items[1].alias, "town");
  ASSERT_EQ(s.select->from.size(), 2u);
  EXPECT_EQ(s.select->from[0].alias, "u1");
  EXPECT_EQ(s.select->from[1].alias, "u2");
  EXPECT_EQ(s.select->limit, 5);
}

TEST(ParserTest, BeginWithTimeoutUnits) {
  ASSERT_OK_AND_ASSIGN(ParsedStatement d,
                       Parser::ParseStatement(
                           "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS"));
  EXPECT_EQ(d.begin->timeout_micros, int64_t{2} * 86400 * 1000000);
  ASSERT_OK_AND_ASSIGN(ParsedStatement ms,
                       Parser::ParseStatement(
                           "BEGIN TRANSACTION WITH TIMEOUT 250 MILLISECONDS"));
  EXPECT_EQ(ms.begin->timeout_micros, 250'000);
  ASSERT_OK_AND_ASSIGN(ParsedStatement plain,
                       Parser::ParseStatement("BEGIN TRANSACTION"));
  EXPECT_EQ(plain.begin->timeout_micros, -1);
  EXPECT_FALSE(
      Parser::ParseStatement("BEGIN TRANSACTION WITH TIMEOUT 2 FORTNIGHTS")
          .ok());
}

TEST(ParserTest, EntangledSelectShapes) {
  // Parenthesized tuple LHS.
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement a,
      Parser::ParseStatement(
          "SELECT 'M', fno INTO ANSWER R "
          "WHERE (fno) IN (SELECT fno FROM F WHERE d='LA') "
          "AND ('N', fno) IN ANSWER R CHOOSE 1"));
  EXPECT_EQ(a.kind, StatementKind::kEntangledSelect);
  EXPECT_EQ(a.entangled->answer_relations,
            std::vector<std::string>{"R"});
  EXPECT_EQ(a.entangled->choose, 1);
  // The paper's bare-list LHS.
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement b,
      Parser::ParseStatement(
          "SELECT 'M', fno, fdate INTO ANSWER R "
          "WHERE fno, fdate IN (SELECT fno, fdate FROM F) "
          "AND ('N', fno, fdate) IN ANSWER R CHOOSE 1"));
  EXPECT_EQ(b.kind, StatementKind::kEntangledSelect);
  // CHOOSE is mandatory for entangled selects.
  EXPECT_FALSE(Parser::ParseStatement(
                   "SELECT 'M', fno INTO ANSWER R "
                   "WHERE ('N', fno) IN ANSWER R")
                   .ok());
}

TEST(ParserTest, MultipleAnswerRelationsParsed) {
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement s,
      Parser::ParseStatement("SELECT 1 INTO ANSWER A, ANSWER B CHOOSE 1"));
  EXPECT_EQ(s.entangled->answer_relations.size(), 2u);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<ParsedStatement> stmts,
      Parser::ParseScript("BEGIN TRANSACTION; SELECT 1; COMMIT;"));
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts[0].kind, StatementKind::kBegin);
  EXPECT_EQ(stmts[2].kind, StatementKind::kCommit);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parser::ParseStatement("SELECT 1 garbage garbage").ok());
  EXPECT_FALSE(Parser::ParseStatement("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(Parser::ParseStatement("UPDATE SET x = 1").ok());
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { session_ = std::make_unique<Session>(fix_.tm.get()); }
  EngineFixture fix_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, CreateInsertSelect) {
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT, hometown VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO User VALUES (1, 'LA'), (2, 'NY')")
                .status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT uid FROM User WHERE hometown='LA'"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(1));
}

TEST_F(SessionTest, InsertWithColumnListAndDefaults) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (a INT, b VARCHAR, c INT)")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO T (c, a) VALUES (3, 1)").status());
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT a, b, c FROM T"));
  EXPECT_EQ(r.rows[0][0], Value::Int(1));
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[0][2], Value::Int(3));
}

TEST_F(SessionTest, HostVariableBindingPaperStyle) {
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT, hometown VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO User VALUES (36513, 'FAT')")
                .status());
  // §D style: bare @vars bind from same-named columns.
  ASSERT_OK(session_->Execute(
                    "SELECT @uid, @hometown FROM User WHERE uid=36513")
                .status());
  EXPECT_EQ(session_->vars().at("uid"), Value::Int(36513));
  EXPECT_EQ(session_->vars().at("hometown"), Value::Str("FAT"));
  // Explicit AS @var.
  ASSERT_OK(session_->Execute(
                    "SELECT uid AS @me FROM User WHERE hometown='FAT'")
                .status());
  EXPECT_EQ(session_->vars().at("me"), Value::Int(36513));
  // Missing rows bind NULL.
  ASSERT_OK(session_->Execute("SELECT @uid FROM User WHERE uid=999").status());
  EXPECT_TRUE(session_->vars().at("uid").is_null());
}

TEST_F(SessionTest, SetAndArithmetic) {
  ASSERT_OK(session_->Execute("SET @ArrivalDay = 503").status());
  ASSERT_OK(session_->Execute("SET @StayLength = 506 - @ArrivalDay").status());
  EXPECT_EQ(session_->vars().at("staylength"), Value::Int(3));
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT @StayLength * 2 + 1"));
  EXPECT_EQ(r.rows[0][0], Value::Int(7));
}

TEST_F(SessionTest, UpdateAndDelete) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT, v VARCHAR)").status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (1,'a'),(2,'b'),(3,'c')")
                .status());
  ASSERT_OK_AND_ASSIGN(sql::QueryResult u,
                       session_->Execute("UPDATE T SET v='x' WHERE k >= 2"));
  EXPECT_EQ(u.affected, 2u);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult d,
                       session_->Execute("DELETE FROM T WHERE k = 1"));
  EXPECT_EQ(d.affected, 1u);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT v FROM T WHERE k=2"));
  EXPECT_EQ(r.rows[0][0], Value::Str("x"));
}

TEST_F(SessionTest, TransactionCommitAndRollback) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT, v VARCHAR)").status());
  ASSERT_OK(session_->Execute("BEGIN TRANSACTION").status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (1, 'a')").status());
  ASSERT_OK(session_->Execute("ROLLBACK").status());
  EXPECT_EQ(session_->Execute("SELECT k FROM T").value().rows.size(), 0u);
  ASSERT_OK(session_->Execute("BEGIN TRANSACTION").status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (2, 'b')").status());
  ASSERT_OK(session_->Execute("COMMIT").status());
  EXPECT_EQ(session_->Execute("SELECT k FROM T").value().rows.size(), 1u);
  EXPECT_FALSE(session_->Execute("COMMIT").ok());  // no open transaction
}

TEST_F(SessionTest, InSubqueryMembership) {
  ASSERT_OK(session_->Execute("CREATE TABLE A (x INT)").status());
  ASSERT_OK(session_->Execute("CREATE TABLE B (y INT)").status());
  ASSERT_OK(session_->Execute("INSERT INTO A VALUES (1),(2),(3)").status());
  ASSERT_OK(session_->Execute("INSERT INTO B VALUES (2),(3),(4)").status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT x FROM A WHERE x IN (SELECT y FROM B)"));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value::Int(2));
}

TEST_F(SessionTest, ThreeWayJoinWithPushdown) {
  // The §D Social query shape over a small dataset.
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT, hometown VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE Friends (uid1 INT, uid2 INT)")
                .status());
  ASSERT_OK(session_->Execute(
                    "INSERT INTO User VALUES (1,'LA'),(2,'LA'),(3,'NY')")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO Friends VALUES (1,2),(1,3)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute(
          "SELECT uid2 FROM Friends, User u1, User u2 "
          "WHERE Friends.uid1=1 AND Friends.uid2=u2.uid AND u1.uid=1 "
          "AND u1.hometown=u2.hometown LIMIT 1"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(2));  // friend 3 lives in NY
}

TEST_F(SessionTest, SelectExpressionWithoutFrom) {
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT 1 + 2 * 3, 'x'"));
  EXPECT_EQ(r.rows[0][0], Value::Int(7));
  EXPECT_EQ(r.rows[0][1], Value::Str("x"));
}

TEST_F(SessionTest, NullComparisonsAreSqlish) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT, v VARCHAR)").status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (1, NULL)").status());
  // NULL = NULL is not true.
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT k FROM T WHERE v = NULL"));
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(SessionTest, EntangledSelectRejectedOutsideEngine) {
  auto r = session_->Execute(
      "SELECT 'M', 1 INTO ANSWER R WHERE ('N', 1) IN ANSWER R CHOOSE 1");
  EXPECT_FALSE(r.ok());
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_->Execute("SELECT x FROM NoSuchTable").ok());
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT)").status());
  EXPECT_FALSE(session_->Execute("SELECT nope FROM T").ok());
  EXPECT_FALSE(session_->Execute("INSERT INTO T VALUES (1, 2)").ok());
}

TEST(ParserTest, PrimaryKeyColumnAndTableLevel) {
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement col_level,
      Parser::ParseStatement("CREATE TABLE U (uid INT PRIMARY KEY, "
                             "name VARCHAR(32))"));
  EXPECT_EQ(col_level.create_table->schema.primary_key(),
            std::vector<size_t>{0});
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement table_level,
      Parser::ParseStatement("CREATE TABLE F (a INT, b INT, c VARCHAR, "
                             "PRIMARY KEY (a, b))"));
  EXPECT_EQ(table_level.create_table->schema.primary_key(),
            (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(
      Parser::ParseStatement("CREATE TABLE U (uid INT PRIMARY)").ok());
  EXPECT_FALSE(
      Parser::ParseStatement("CREATE TABLE U (a INT, PRIMARY KEY (zzz))")
          .ok());
}

class PlannerSessionTest : public SessionTest {
 protected:
  uint64_t IndexLookups() { return fix_.tm->stats().index_lookups.load(); }
  uint64_t TableScans() { return fix_.tm->stats().table_scans.load(); }
  uint64_t JoinProbes() { return fix_.tm->stats().join_probes.load(); }
  uint64_t JoinProbeCacheHits() {
    return fix_.tm->stats().join_probe_cache_hits.load();
  }
  uint64_t GroundingJoinProbeCacheHits() {
    return fix_.tm->stats().grounding_join_probe_cache_hits.load();
  }
};

TEST_F(PlannerSessionTest, PointSelectOnPrimaryKeyUsesIndex) {
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT PRIMARY KEY, "
                              "hometown VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute(
                    "INSERT INTO User VALUES (1,'LA'),(2,'NY'),(3,'SF')")
                .status());
  uint64_t scans = TableScans();
  uint64_t lookups = IndexLookups();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute(
                           "SELECT hometown FROM User WHERE uid = 2"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("NY"));
  EXPECT_EQ(IndexLookups(), lookups + 1);
  EXPECT_EQ(TableScans(), scans);
  // A non-indexed predicate still scans.
  ASSERT_OK(session_->Execute("SELECT uid FROM User WHERE hometown = 'LA'")
                .status());
  EXPECT_EQ(TableScans(), scans + 1);
  // Host variables are sargable once bound.
  ASSERT_OK(session_->Execute("SET @target = 3").status());
  ASSERT_OK_AND_ASSIGN(sql::QueryResult hv,
                       session_->Execute(
                           "SELECT hometown FROM User WHERE uid = @target"));
  ASSERT_EQ(hv.rows.size(), 1u);
  EXPECT_EQ(hv.rows[0][0], Value::Str("SF"));
  EXPECT_EQ(IndexLookups(), lookups + 2);
}

TEST_F(PlannerSessionTest, CreateIndexStatementEnablesIndexedSelects) {
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT, town VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute(
                    "INSERT INTO User VALUES (1,'LA'),(2,'LA'),(3,'NY')")
                .status());
  uint64_t scans = TableScans();
  ASSERT_OK(session_->Execute("SELECT uid FROM User WHERE town = 'LA'")
                .status());
  EXPECT_EQ(TableScans(), scans + 1);
  ASSERT_OK(session_->Execute("CREATE INDEX ON User (town)").status());
  uint64_t lookups = IndexLookups();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute(
                           "SELECT uid FROM User WHERE town = 'LA'"));
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(IndexLookups(), lookups + 1);
  EXPECT_EQ(TableScans(), scans + 1);  // unchanged
}

TEST_F(PlannerSessionTest, UpdateAndDeleteRouteThroughIndex) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT PRIMARY KEY, v INT)")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (1,10),(2,20),(3,30)")
                .status());
  uint64_t scans = TableScans();
  uint64_t lookups = IndexLookups();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult u,
                       session_->Execute("UPDATE T SET v = 21 WHERE k = 2"));
  EXPECT_EQ(u.affected, 1u);
  EXPECT_EQ(IndexLookups(), lookups + 1);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult d,
                       session_->Execute("DELETE FROM T WHERE k = 3"));
  EXPECT_EQ(d.affected, 1u);
  EXPECT_EQ(IndexLookups(), lookups + 2);
  EXPECT_EQ(TableScans(), scans);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT v FROM T WHERE k = 2"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(21));
  ASSERT_OK_AND_ASSIGN(sql::QueryResult gone,
                       session_->Execute("SELECT v FROM T WHERE k = 3"));
  EXPECT_TRUE(gone.rows.empty());
  // Residual predicates still filter on top of the index probe.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult res,
      session_->Execute("UPDATE T SET v = 0 WHERE k = 2 AND v = 999"));
  EXPECT_EQ(res.affected, 0u);
}

TEST_F(PlannerSessionTest, DuplicatePrimaryKeyInsertRejected) {
  ASSERT_OK(session_->Execute("CREATE TABLE T (k INT PRIMARY KEY, v INT)")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO T VALUES (1, 10)").status());
  EXPECT_FALSE(session_->Execute("INSERT INTO T VALUES (1, 11)").ok());
  ASSERT_OK_AND_ASSIGN(sql::QueryResult r,
                       session_->Execute("SELECT v FROM T WHERE k = 1"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(10));
}

TEST_F(PlannerSessionTest, RandomizedDifferentialIndexVsScan) {
  // Twin tables with identical contents; "I" carries a PK and a secondary
  // index, "S" has none. Every query must return identical row sets, while
  // the counters prove "I" is served by lookups and "S" by scans.
  ASSERT_OK(session_->Execute("CREATE TABLE I (uid INT PRIMARY KEY, "
                              "city VARCHAR, score INT)")
                .status());
  ASSERT_OK(session_->Execute(
                    "CREATE TABLE S (uid INT, city VARCHAR, score INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE INDEX ON I (city)").status());
  std::mt19937 rng(20260728);
  const char* cities[] = {"LA", "NY", "SF", "LV", "DC"};
  for (int uid = 0; uid < 200; ++uid) {
    std::string city = cities[rng() % 5];
    int64_t score = static_cast<int64_t>(rng() % 50);
    for (const char* table : {"I", "S"}) {
      ASSERT_OK(session_
                    ->Execute(std::string("INSERT INTO ") + table +
                              " VALUES (" + std::to_string(uid) + ", '" +
                              city + "', " + std::to_string(score) + ")")
                    .status());
    }
  }
  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  uint64_t lookups = IndexLookups();
  for (int q = 0; q < 60; ++q) {
    std::string where;
    switch (q % 3) {
      case 0:
        where = "uid = " + std::to_string(rng() % 250);  // some miss
        break;
      case 1:
        where = std::string("city = '") + cities[rng() % 5] + "'";
        break;
      default:
        where = std::string("city = '") + cities[rng() % 5] +
                "' AND score > " + std::to_string(rng() % 50);
        break;
    }
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult ri,
        session_->Execute("SELECT uid, city, score FROM I WHERE " + where));
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult rs,
        session_->Execute("SELECT uid, city, score FROM S WHERE " + where));
    EXPECT_EQ(sorted_rows(std::move(ri)), sorted_rows(std::move(rs)))
        << "divergence on WHERE " << where;
  }
  EXPECT_EQ(IndexLookups(), lookups + 60);  // every I query used an index
}

TEST_F(PlannerSessionTest, ThreeWayJoinRoutesThroughBindDrivenProbes) {
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT PRIMARY KEY, "
                              "hometown VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE Friends (uid1 INT, uid2 INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE INDEX ON Friends (uid1)").status());
  ASSERT_OK(session_->Execute(
                    "INSERT INTO User VALUES (1,'LA'),(2,'LA'),(3,'NY'),"
                    "(4,'LA')")
                .status());
  ASSERT_OK(session_->Execute("INSERT INTO Friends VALUES (1,2),(1,3),(1,4)")
                .status());
  uint64_t scans = TableScans();
  uint64_t probes = JoinProbes();
  uint64_t hits = JoinProbeCacheHits();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute(
          "SELECT u2.uid FROM Friends, User u1, User u2 "
          "WHERE Friends.uid1=1 AND u1.uid=1 AND Friends.uid2=u2.uid "
          "AND u1.hometown=u2.hometown"));
  std::vector<Row> rows = r.rows;
  std::sort(rows.begin(), rows.end());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
  EXPECT_EQ(rows[1][0], Value::Int(4));
  // u2 was never snapshotted: one probe per Friends row (distinct keys, so
  // no cache hits yet), and no full scan anywhere.
  EXPECT_EQ(JoinProbes(), probes + 3);
  EXPECT_EQ(JoinProbeCacheHits(), hits);
  EXPECT_EQ(TableScans(), scans);
  // A repeated binding is served from the per-depth probe cache.
  ASSERT_OK(session_->Execute("INSERT INTO Friends VALUES (1,4)").status());
  probes = JoinProbes();
  hits = JoinProbeCacheHits();
  const uint64_t grounding_hits = GroundingJoinProbeCacheHits();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r2,
      session_->Execute(
          "SELECT u2.uid FROM Friends, User u1, User u2 "
          "WHERE Friends.uid1=1 AND u1.uid=1 AND Friends.uid2=u2.uid "
          "AND u1.hometown=u2.hometown"));
  EXPECT_EQ(r2.rows.size(), 3u);  // duplicate edge joins twice
  EXPECT_EQ(JoinProbes(), probes + 3);        // keys 2, 3, 4
  EXPECT_EQ(JoinProbeCacheHits(), hits + 1);  // second (1,4) edge
  // The hit is counted under the SQL origin only.
  EXPECT_EQ(GroundingJoinProbeCacheHits(), grounding_hits);
}

TEST_F(PlannerSessionTest, DuplicateAliasSelfJoinDoesNotMisbindPlans) {
  // With duplicate aliases (FROM User, User) a qualified `User.uid`
  // evaluates against the FIRST User; neither the constant index path nor
  // the join-probe path may claim the conjunct for the second one.
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT PRIMARY KEY, "
                              "town VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE Friends (uid1 INT, uid2 INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE INDEX ON Friends (uid1)").status());
  for (int uid = 1; uid <= 5; ++uid) {
    ASSERT_OK(session_
                  ->Execute("INSERT INTO User VALUES (" +
                            std::to_string(uid) + ", 'LA')")
                  .status());
  }
  ASSERT_OK(session_->Execute("INSERT INTO Friends VALUES (1,2),(1,3)")
                .status());
  // Constant instance: the predicate constrains the first User only; the
  // second stays a free cross product (5 rows, not 1).
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult c,
      session_->Execute("SELECT User.uid FROM User, User WHERE User.uid=2"));
  EXPECT_EQ(c.rows.size(), 5u);
  // Join instance: first User probed on Friends.uid2, second unconstrained.
  const std::string query =
      "SELECT User.uid FROM Friends, User, User "
      "WHERE Friends.uid1=1 AND User.uid=Friends.uid2";
  ASSERT_OK_AND_ASSIGN(sql::QueryResult probed, session_->Execute(query));
  session_->executor().set_join_probes_enabled(false);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult snapped, session_->Execute(query));
  session_->executor().set_join_probes_enabled(true);
  EXPECT_EQ(probed.rows.size(), 10u);  // 2 edges x 1 bound User x 5 free
  auto sorted = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  EXPECT_EQ(sorted(std::move(probed)), sorted(std::move(snapped)));
}

TEST_F(PlannerSessionTest, RandomizedDifferentialProbeVsSnapshotJoin) {
  // One set of indexed tables; the executor's ablation switch flips the
  // inner tables between bind-driven probes and eager snapshots. Row sets
  // must be identical, while the counters prove the paths diverged.
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT PRIMARY KEY, "
                              "city VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE Friends (uid1 INT, uid2 INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE INDEX ON Friends (uid1)").status());
  std::mt19937 rng(20260728);
  const char* cities[] = {"LA", "NY", "SF", "LV", "DC"};
  for (int uid = 0; uid < 80; ++uid) {
    ASSERT_OK(session_
                  ->Execute("INSERT INTO User VALUES (" +
                            std::to_string(uid) + ", '" +
                            cities[rng() % 5] + "')")
                  .status());
  }
  for (int e = 0; e < 240; ++e) {
    int a = static_cast<int>(rng() % 80);
    int b = static_cast<int>(rng() % 80);
    ASSERT_OK(session_
                  ->Execute("INSERT INTO Friends VALUES (" +
                            std::to_string(a) + ", " + std::to_string(b) +
                            ")")
                  .status());
  }
  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  uint64_t probe_total = 0;
  for (int q = 0; q < 40; ++q) {
    int root = static_cast<int>(rng() % 90);  // some roots miss
    std::string query;
    if (q % 2 == 0) {
      query = "SELECT u2.uid, u2.city FROM Friends, User u1, User u2 "
              "WHERE Friends.uid1=" + std::to_string(root) +
              " AND u1.uid=" + std::to_string(root) +
              " AND Friends.uid2=u2.uid AND u1.city=u2.city";
    } else {
      query = "SELECT u.city FROM Friends, User u WHERE Friends.uid1=" +
              std::to_string(root) + " AND Friends.uid2=u.uid";
    }
    uint64_t before = JoinProbes();
    session_->executor().set_join_probes_enabled(true);
    ASSERT_OK_AND_ASSIGN(sql::QueryResult probed, session_->Execute(query));
    probe_total += JoinProbes() - before;
    before = JoinProbes();
    session_->executor().set_join_probes_enabled(false);
    ASSERT_OK_AND_ASSIGN(sql::QueryResult snapped, session_->Execute(query));
    EXPECT_EQ(JoinProbes(), before);  // the snapshot path never probes
    session_->executor().set_join_probes_enabled(true);
    EXPECT_EQ(sorted_rows(std::move(probed)), sorted_rows(std::move(snapped)))
        << "divergence on " << query;
  }
  EXPECT_GT(probe_total, 0u);

  // Past ProbeCache::kMaxKeys distinct keys the probe cache overflows:
  // 1200 distinct Visits keys, each visited twice. Whatever the scan order,
  // the first 1024 distinct keys are cached (probed once, hit once) and the
  // other 176 come back through the overflow vector on both visits.
  constexpr int kDistinct = 1200;
  ASSERT_GT(kDistinct, static_cast<int>(sql::ProbeCache::kMaxKeys));
  ASSERT_OK(session_->Execute("CREATE TABLE Visits (uid INT)").status());
  for (int base = 0; base < kDistinct; base += 100) {
    std::string users = "INSERT INTO User VALUES ";
    std::string visits = "INSERT INTO Visits VALUES ";
    for (int uid = 1000 + base; uid < 1000 + base + 100; ++uid) {
      if (uid != 1000 + base) {
        users += ",";
        visits += ",";
      }
      users += "(" + std::to_string(uid) + ", '" + cities[uid % 5] + "')";
      visits += "(" + std::to_string(uid) + "),(" + std::to_string(uid) + ")";
    }
    ASSERT_OK(session_->Execute(users).status());
    ASSERT_OK(session_->Execute(visits).status());
  }
  const std::string wide =
      "SELECT u.uid, u.city FROM Visits, User u WHERE Visits.uid = u.uid";
  const uint64_t probes_before = JoinProbes();
  const uint64_t hits_before = JoinProbeCacheHits();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult probed, session_->Execute(wide));
  const uint64_t kept = sql::ProbeCache::kMaxKeys;
  EXPECT_EQ(JoinProbes() - probes_before, kept + 2 * (kDistinct - kept));
  EXPECT_EQ(JoinProbeCacheHits() - hits_before, kept);
  session_->executor().set_join_probes_enabled(false);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult snapped, session_->Execute(wide));
  session_->executor().set_join_probes_enabled(true);
  EXPECT_EQ(probed.rows.size(), 2u * kDistinct);
  EXPECT_EQ(sorted_rows(std::move(probed)), sorted_rows(std::move(snapped)));
}

TEST(ProbeDifferentialTest, DifferentialJoinStableUnderConcurrentWriters) {
  // The queried neighborhood (uids < 100) is fixed at setup; writer threads
  // keep inserting users and edges with uids >= 1000. Inside one reader
  // transaction the probe-path and snapshot-path joins must agree exactly:
  // probes take index-key predicate locks, the snapshot takes table S
  // locks, and either way Strict 2PL pins the read set until commit.
  // Short lock timeout: on a 1-cpu box reader/writer collisions otherwise
  // stall for the full 2 s default each; lock failures just retry.
  TransactionManager::Options options;
  options.lock_timeout_micros = 100'000;
  EngineFixture fix_(options);
  auto session_ = std::make_unique<Session>(fix_.tm.get());
  ASSERT_OK(session_->Execute("CREATE TABLE User (uid INT PRIMARY KEY, "
                              "city VARCHAR)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE Friends (uid1 INT, uid2 INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE INDEX ON Friends (uid1)").status());
  const char* cities[] = {"LA", "NY", "SF"};
  for (int uid = 0; uid < 20; ++uid) {
    ASSERT_OK(session_
                  ->Execute("INSERT INTO User VALUES (" +
                            std::to_string(uid) + ", '" +
                            cities[uid % 3] + "')")
                  .status());
  }
  for (int b = 1; b < 10; ++b) {
    ASSERT_OK(session_
                  ->Execute("INSERT INTO Friends VALUES (1, " +
                            std::to_string(b + 1) + ")")
                  .status());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Session writer(fix_.tm.get());
      int64_t next = 1000 + w * 100000;
      while (!stop.load()) {
        ++next;
        // Inserts may time out while the reader holds table S locks —
        // that is expected blocking, not divergence; just move on.
        (void)writer.Execute("INSERT INTO User VALUES (" +
                             std::to_string(next) + ", 'LA')");
        (void)writer.Execute("INSERT INTO Friends VALUES (" +
                             std::to_string(next) + ", " +
                             std::to_string(next - 1) + ")");
      }
    });
  }

  const std::string query =
      "SELECT u2.uid, u2.city FROM Friends, User u1, User u2 "
      "WHERE Friends.uid1=1 AND u1.uid=1 AND Friends.uid2=u2.uid "
      "AND u1.city=u2.city";
  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  int compared = 0;
  for (int round = 0; round < 60 && compared < 20; ++round) {
    ASSERT_OK(session_->Execute("BEGIN TRANSACTION").status());
    session_->executor().set_join_probes_enabled(true);
    auto probed = session_->Execute(query);
    session_->executor().set_join_probes_enabled(false);
    auto snapped = session_->Execute(query);
    session_->executor().set_join_probes_enabled(true);
    if (!probed.ok() || !snapped.ok()) {
      // Lock timeout under contention: abort the round and retry.
      (void)session_->Execute("ROLLBACK");
      continue;
    }
    ASSERT_OK(session_->Execute("COMMIT").status());
    EXPECT_EQ(sorted_rows(std::move(probed).value()),
              sorted_rows(std::move(snapped).value()))
        << "divergence in round " << round;
    ++compared;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(compared, 0) << "every round timed out; nothing was compared";
}

TEST(ParserTest, OrderByBetweenAndIndexFlagsParse) {
  ASSERT_OK_AND_ASSIGN(
      ParsedStatement s,
      Parser::ParseStatement("SELECT a FROM T WHERE a BETWEEN 1 AND 5 "
                             "ORDER BY a, b DESC LIMIT 3"));
  ASSERT_EQ(s.select->order_by.size(), 2u);
  EXPECT_FALSE(s.select->order_by[0].desc);
  EXPECT_TRUE(s.select->order_by[1].desc);
  EXPECT_EQ(s.select->limit, 3);
  // BETWEEN desugars to >= AND <=.
  EXPECT_EQ(s.select->where->op, "AND");

  ASSERT_OK_AND_ASSIGN(
      ParsedStatement ci,
      Parser::ParseStatement("CREATE UNIQUE INDEX ON T (a, b) USING ORDERED"));
  EXPECT_TRUE(ci.create_index->unique);
  EXPECT_TRUE(ci.create_index->ordered);
  ASSERT_OK_AND_ASSIGN(ParsedStatement hash,
                       Parser::ParseStatement("CREATE INDEX ON T (a)"));
  EXPECT_FALSE(hash.create_index->unique);
  EXPECT_FALSE(hash.create_index->ordered);
  EXPECT_FALSE(Parser::ParseStatement("CREATE UNIQUE TABLE T (a INT)").ok());
  EXPECT_FALSE(
      Parser::ParseStatement("CREATE INDEX ON T (a) USING NONSENSE").ok());

  ASSERT_OK_AND_ASSIGN(
      ParsedStatement pk,
      Parser::ParseStatement("CREATE TABLE T (a INT, b INT, "
                             "PRIMARY KEY (a) USING ORDERED)"));
  EXPECT_TRUE(pk.create_table->schema.pk_ordered());
}

class RangeSessionTest : public PlannerSessionTest {
 protected:
  uint64_t RangeLookups() { return fix_.tm->stats().range_lookups.load(); }

  /// Prices(id PK, price, city) with an ordered index on price, plus an
  /// identical unindexed twin PricesScan.
  void SeedPrices(int n = 60) {
    ASSERT_OK(session_
                  ->Execute("CREATE TABLE Prices (id INT PRIMARY KEY, "
                            "price INT, city VARCHAR)")
                  .status());
    ASSERT_OK(session_
                  ->Execute("CREATE TABLE PricesScan (id INT, price INT, "
                            "city VARCHAR)")
                  .status());
    ASSERT_OK(session_->Execute("CREATE INDEX ON Prices (price) USING ORDERED")
                  .status());
    std::mt19937 rng(4242);
    const char* cities[] = {"LA", "NY", "SF"};
    for (int id = 0; id < n; ++id) {
      std::string vals = "(" + std::to_string(id) + ", " +
                         std::to_string(rng() % 100) + ", '" +
                         cities[rng() % 3] + "')";
      ASSERT_OK(
          session_->Execute("INSERT INTO Prices VALUES " + vals).status());
      ASSERT_OK(session_->Execute("INSERT INTO PricesScan VALUES " + vals)
                    .status());
    }
  }

  static std::vector<Row> Sorted(sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  }
};

TEST_F(RangeSessionTest, RangeSelectUsesOrderedIndexAndMatchesScan) {
  SeedPrices();
  uint64_t scans = TableScans();
  uint64_t ranges = RangeLookups();
  for (const char* where :
       {"price < 20", "price >= 80", "price > 30 AND price <= 50",
        "price BETWEEN 10 AND 25", "price > 40 AND city = 'LA'"}) {
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult ri,
        session_->Execute(std::string("SELECT id, price FROM Prices WHERE ") +
                          where));
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult rs,
        session_->Execute(
            std::string("SELECT id, price FROM PricesScan WHERE ") + where));
    EXPECT_EQ(Sorted(std::move(ri)), Sorted(std::move(rs)))
        << "divergence on WHERE " << where;
  }
  EXPECT_EQ(RangeLookups(), ranges + 5);  // every Prices query used the range
  EXPECT_EQ(TableScans(), scans + 5);     // ...and every twin query scanned
}

TEST_F(RangeSessionTest, OrderByServedFromIndexWithoutSort) {
  SeedPrices();
  uint64_t ranges = RangeLookups();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult asc,
                       session_->Execute(
                           "SELECT price FROM Prices ORDER BY price"));
  // Unbounded interval: counted as a range lookup, locked as a table S scan
  // (the interval covers the whole key space), served in index key order.
  EXPECT_EQ(RangeLookups(), ranges + 1);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult twin,
      session_->Execute("SELECT price FROM PricesScan ORDER BY price"));
  ASSERT_EQ(asc.rows.size(), twin.rows.size());
  EXPECT_EQ(asc.rows, twin.rows);  // identical ordered output either path
  for (size_t i = 1; i < asc.rows.size(); ++i) {
    EXPECT_LE(asc.rows[i - 1][0].as_int(), asc.rows[i][0].as_int());
  }
  // DESC with LIMIT: the top of the index, served in reverse key order.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult desc,
      session_->Execute(
          "SELECT price FROM Prices ORDER BY price DESC LIMIT 3"));
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult desc_twin,
      session_->Execute(
          "SELECT price FROM PricesScan ORDER BY price DESC LIMIT 3"));
  EXPECT_EQ(desc.rows, desc_twin.rows);
  ASSERT_EQ(desc.rows.size(), 3u);
  // Range + ORDER BY + LIMIT pushes the limit into the fetch.
  uint64_t ranged = RangeLookups();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult top,
      session_->Execute("SELECT price FROM Prices WHERE price > 50 "
                        "ORDER BY price LIMIT 2"));
  EXPECT_EQ(RangeLookups(), ranged + 1);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult top_twin,
      session_->Execute("SELECT price FROM PricesScan WHERE price > 50 "
                        "ORDER BY price LIMIT 2"));
  EXPECT_EQ(top.rows, top_twin.rows);
}

TEST_F(RangeSessionTest, OrderByExpressionAndMultiTableSortFallback) {
  SeedPrices(20);
  // Expression keys and mixed directions cannot be served by an index but
  // must still sort correctly.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT id, price FROM Prices "
                        "ORDER BY price DESC, id LIMIT 5"));
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult twin,
      session_->Execute("SELECT id, price FROM PricesScan "
                        "ORDER BY price DESC, id LIMIT 5"));
  EXPECT_EQ(r.rows, twin.rows);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult expr,
      session_->Execute("SELECT id FROM Prices ORDER BY 0 - price LIMIT 4"));
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult expr_twin,
      session_->Execute(
          "SELECT id FROM PricesScan ORDER BY 0 - price LIMIT 4"));
  EXPECT_EQ(expr.rows, expr_twin.rows);
}

TEST_F(RangeSessionTest, RangeUpdateAndDeleteLockRowsUpFront) {
  SeedPrices(30);
  uint64_t ranges = RangeLookups();
  uint64_t scans = TableScans();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult u,
      session_->Execute("UPDATE Prices SET city = 'XX' WHERE price < 30"));
  EXPECT_EQ(RangeLookups(), ranges + 1);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult twin_u,
      session_->Execute("UPDATE PricesScan SET city = 'XX' WHERE price < 30"));
  EXPECT_EQ(u.affected, twin_u.affected);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult d,
      session_->Execute("DELETE FROM Prices WHERE price >= 70"));
  EXPECT_EQ(RangeLookups(), ranges + 2);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult twin_d,
      session_->Execute("DELETE FROM PricesScan WHERE price >= 70"));
  EXPECT_EQ(d.affected, twin_d.affected);
  EXPECT_EQ(TableScans(), scans);  // neither statement table-scanned Prices
  ASSERT_OK_AND_ASSIGN(sql::QueryResult check,
                       session_->Execute("SELECT id, price, city FROM Prices"));
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult twin_check,
      session_->Execute("SELECT id, price, city FROM PricesScan"));
  EXPECT_EQ(Sorted(std::move(check)), Sorted(std::move(twin_check)));
}

TEST_F(RangeSessionTest, UniqueSecondaryIndexEnforcedWithNullExemption) {
  ASSERT_OK(session_
                ->Execute("CREATE TABLE U (id INT PRIMARY KEY, email VARCHAR)")
                .status());
  ASSERT_OK(
      session_->Execute("CREATE UNIQUE INDEX ON U (email)").status());
  ASSERT_OK(session_->Execute("INSERT INTO U VALUES (1, 'a@x')").status());
  EXPECT_FALSE(session_->Execute("INSERT INTO U VALUES (2, 'a@x')").ok());
  // SQL UNIQUE: NULLs never collide.
  ASSERT_OK(session_->Execute("INSERT INTO U VALUES (3, NULL)").status());
  ASSERT_OK(session_->Execute("INSERT INTO U VALUES (4, NULL)").status());
  // An UPDATE moving a row onto a taken key is rejected too.
  EXPECT_FALSE(
      session_->Execute("UPDATE U SET email = 'a@x' WHERE id = 3").ok());
  // Build-time enforcement over existing duplicates.
  ASSERT_OK(session_->Execute("CREATE TABLE D (v INT)").status());
  ASSERT_OK(session_->Execute("INSERT INTO D VALUES (1), (1)").status());
  EXPECT_FALSE(session_->Execute("CREATE UNIQUE INDEX ON D (v)").ok());
}

TEST_F(RangeSessionTest, NullSemanticsAgreeBetweenRangeAndScanPaths) {
  // Regression against the expr_eval NULL rules: `col < x` must not match
  // NULL rows on either path, and the ordered index must not resurrect
  // them via key order (NULL sorts first in the raw Value order).
  ASSERT_OK(session_
                ->Execute("CREATE TABLE NI (id INT PRIMARY KEY, v INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE NS (id INT, v INT)").status());
  ASSERT_OK(
      session_->Execute("CREATE INDEX ON NI (v) USING ORDERED").status());
  for (const char* vals :
       {"(1, 5)", "(2, NULL)", "(3, 50)", "(4, NULL)", "(5, 0)"}) {
    ASSERT_OK(
        session_->Execute(std::string("INSERT INTO NI VALUES ") + vals)
            .status());
    ASSERT_OK(
        session_->Execute(std::string("INSERT INTO NS VALUES ") + vals)
            .status());
  }
  uint64_t ranges = RangeLookups();
  for (const char* where :
       {"v < 10", "v <= 0", "v > 4", "v >= 0", "v BETWEEN 0 AND 50"}) {
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult ri,
        session_->Execute(std::string("SELECT id FROM NI WHERE ") + where));
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult rs,
        session_->Execute(std::string("SELECT id FROM NS WHERE ") + where));
    EXPECT_EQ(Sorted(std::move(ri)), Sorted(std::move(rs)))
        << "divergence on WHERE " << where;
    for (const Row& row : Sorted(std::move(ri))) {
      EXPECT_NE(row[0], Value::Int(2));
      EXPECT_NE(row[0], Value::Int(4));
    }
  }
  EXPECT_EQ(RangeLookups(), ranges + 5);
  // With LIMIT pushdown (covered predicate) the NULL row must not leak in.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult lim,
      session_->Execute("SELECT v FROM NI WHERE v < 100 ORDER BY v LIMIT 2"));
  ASSERT_EQ(lim.rows.size(), 2u);
  EXPECT_EQ(lim.rows[0][0], Value::Int(0));
  EXPECT_EQ(lim.rows[1][0], Value::Int(5));
}

TEST_F(RangeSessionTest, RandomizedDifferentialRangeVsScanUnderWriters) {
  // Twin tables; random range/order/limit queries must agree between the
  // ordered-index path and the scan path while writers mutate both tables
  // identically between rounds (single session: the mutation commits before
  // the next comparison, so both tables always hold identical contents).
  SeedPrices(80);
  std::mt19937 rng(777);
  const char* cities[] = {"LA", "NY", "SF"};
  int next_id = 1000;
  for (int round = 0; round < 40; ++round) {
    // Mutate both twins identically.
    switch (rng() % 3) {
      case 0: {
        std::string vals = "(" + std::to_string(next_id++) + ", " +
                           std::to_string(rng() % 100) + ", '" +
                           cities[rng() % 3] + "')";
        ASSERT_OK(
            session_->Execute("INSERT INTO Prices VALUES " + vals).status());
        ASSERT_OK(session_->Execute("INSERT INTO PricesScan VALUES " + vals)
                      .status());
        break;
      }
      case 1: {
        std::string where = " WHERE price > " + std::to_string(rng() % 100) +
                            " AND price < " + std::to_string(rng() % 100);
        ASSERT_OK(
            session_->Execute("UPDATE Prices SET price = price + 1" + where)
                .status());
        ASSERT_OK(session_
                      ->Execute("UPDATE PricesScan SET price = price + 1" +
                                where)
                      .status());
        break;
      }
      default: {
        std::string where = " WHERE price = " + std::to_string(rng() % 100);
        ASSERT_OK(session_->Execute("DELETE FROM Prices" + where).status());
        ASSERT_OK(
            session_->Execute("DELETE FROM PricesScan" + where).status());
        break;
      }
    }
    int lo = static_cast<int>(rng() % 100);
    int hi = lo + static_cast<int>(rng() % 40);
    std::string where;
    switch (rng() % 4) {
      case 0:
        where = "price >= " + std::to_string(lo);
        break;
      case 1:
        where = "price < " + std::to_string(hi);
        break;
      case 2:
        where = "price BETWEEN " + std::to_string(lo) + " AND " +
                std::to_string(hi);
        break;
      default:
        where = "price > " + std::to_string(lo) + " AND city = '" +
                cities[rng() % 3] + "'";
        break;
    }
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult ri,
        session_->Execute("SELECT id, price, city FROM Prices WHERE " +
                          where));
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult rs,
        session_->Execute("SELECT id, price, city FROM PricesScan WHERE " +
                          where));
    EXPECT_EQ(Sorted(std::move(ri)), Sorted(std::move(rs)))
        << "divergence on WHERE " << where << " in round " << round;
  }
}

TEST(RangeDifferentialTest, RangeSelectStableUnderConcurrentWriters) {
  // Concurrent version: writers keep inserting rows with price >= 1000
  // while the reader compares the range-index path against the scan twin
  // inside one transaction. Key-range S locks pin the scanned interval, the
  // table S lock pins the twin; Strict 2PL makes both repeatable, so the
  // row sets must match exactly in every round.
  TransactionManager::Options options;
  options.lock_timeout_micros = 100'000;
  testing::EngineFixture fix_(options);
  auto session_ = std::make_unique<Session>(fix_.tm.get());
  ASSERT_OK(session_
                ->Execute("CREATE TABLE P (id INT PRIMARY KEY, price INT)")
                .status());
  ASSERT_OK(session_->Execute("CREATE TABLE PS (id INT, price INT)").status());
  ASSERT_OK(
      session_->Execute("CREATE INDEX ON P (price) USING ORDERED").status());
  for (int id = 0; id < 40; ++id) {
    std::string vals =
        "(" + std::to_string(id) + ", " + std::to_string((id * 7) % 100) + ")";
    ASSERT_OK(session_->Execute("INSERT INTO P VALUES " + vals).status());
    ASSERT_OK(session_->Execute("INSERT INTO PS VALUES " + vals).status());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Session w(fix_.tm.get());
    int64_t next = 1000;
    // Bounded growth (and a breather per iteration) so reader rounds can
    // win their locks even on a 1-cpu box.
    while (!stop.load() && next < 1600) {
      ++next;
      // Writes both in range (price < 100 via modulo) and far outside; they
      // may block on the reader's interval locks and time out — expected.
      (void)w.Execute("INSERT INTO P VALUES (" + std::to_string(next) + ", " +
                      std::to_string(next % 150) + ")");
      (void)w.Execute("INSERT INTO PS VALUES (" + std::to_string(next) +
                      ", " + std::to_string(next % 150) + ")");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  int compared = 0;
  for (int round = 0; round < 60 && compared < 15; ++round) {
    ASSERT_OK(session_->Execute("BEGIN TRANSACTION").status());
    auto ri = session_->Execute("SELECT price FROM P WHERE price > 20 "
                                "AND price <= 60");
    auto rs = session_->Execute("SELECT price FROM PS WHERE price > 20 "
                                "AND price <= 60");
    if (!ri.ok() || !rs.ok()) {
      (void)session_->Execute("ROLLBACK");
      continue;
    }
    ASSERT_OK(session_->Execute("COMMIT").status());
    EXPECT_EQ(sorted_rows(std::move(ri).value()),
              sorted_rows(std::move(rs).value()))
        << "divergence in round " << round;
    ++compared;
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(compared, 0) << "every round timed out; nothing was compared";
}

TEST_F(RangeSessionTest, RangeJoinProbesMatchSnapshotJoin) {
  // `inner.price > outer.v` drives a per-binding range probe into the
  // ordered index; the ablation switch must not change the result set.
  SeedPrices(40);
  ASSERT_OK(session_->Execute("CREATE TABLE Cut (v INT)").status());
  ASSERT_OK(
      session_->Execute("INSERT INTO Cut VALUES (90), (95), (99)").status());
  uint64_t range_probes = fix_.tm->stats().range_join_probes.load();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult probed,
      session_->Execute("SELECT Cut.v, Prices.id FROM Cut, Prices "
                        "WHERE Prices.price > Cut.v"));
  EXPECT_GT(fix_.tm->stats().range_join_probes.load(), range_probes);
  session_->executor().set_join_probes_enabled(false);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult snapped,
      session_->Execute("SELECT Cut.v, Prices.id FROM Cut, Prices "
                        "WHERE Prices.price > Cut.v"));
  session_->executor().set_join_probes_enabled(true);
  EXPECT_EQ(Sorted(std::move(probed)), Sorted(std::move(snapped)));
  // Repeated bindings hit the probe cache.
  ASSERT_OK(session_->Execute("INSERT INTO Cut VALUES (90)").status());
  uint64_t hits = fix_.tm->stats().range_probe_cache_hits.load();
  ASSERT_OK(session_
                ->Execute("SELECT Cut.v, Prices.id FROM Cut, Prices "
                          "WHERE Prices.price > Cut.v")
                .status());
  EXPECT_GT(fix_.tm->stats().range_probe_cache_hits.load(), hits);
}

// --- Plan choices, pinned: which access path the planner picks for one
// --- FROM table of a statement, with its columns and flags.

/// T(k, a, b, c, d) has an ordered primary key on k, a composite ordered
/// index on (a, b) and a hash index on c; U(x, y, s) is the outer table of
/// the join cases. Column positions: k=0, a=1, b=2, c=3, d=4.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Session s(fix_.tm.get());
    ASSERT_OK(s.Execute("CREATE TABLE T (k INT, a INT, b INT, c VARCHAR, "
                        "d DOUBLE, PRIMARY KEY (k) USING ORDERED)")
                  .status());
    ASSERT_OK(s.Execute("CREATE INDEX ON T (a, b) USING ORDERED").status());
    ASSERT_OK(s.Execute("CREATE INDEX ON T (c)").status());
    ASSERT_OK(
        s.Execute("CREATE TABLE U (x INT, y INT, s VARCHAR)").status());
  }

  /// The plan the executor would run for FROM entry `target` of `select`
  /// (the ORDER BY is offered for a single FROM table only), rendered as
  /// `kind[columns]` plus ` ordered`, ` reverse`, ` covers` flags.
  std::string PlanOf(const std::string& select, size_t target, bool probes) {
    auto parsed = Parser::ParseStatement(select);
    if (!parsed.ok()) return parsed.status().ToString();
    const sql::SelectStmt& sel = *parsed.value().select;
    std::vector<sql::TableScope> scope;
    for (const sql::TableRef& ref : sel.from) {
      scope.push_back(
          {ref.alias, &fix_.tm->db()->GetTable(ref.table).value()->schema()});
    }
    Table* t = fix_.tm->db()->GetTable(sel.from[target].table).value();
    sql::OrderSpec order;
    for (const sql::OrderByItem& item : sel.order_by) {
      order.columns.push_back(t->schema().IndexOf(item.expr->column).value());
      order.desc = item.desc;
    }
    const bool use_order = !sel.order_by.empty() && sel.from.size() == 1;
    auto cols = [](const std::vector<size_t>& c) {
      std::string s = "[";
      for (size_t i = 0; i < c.size(); ++i) {
        s += (i ? "," : "") + std::to_string(c[i]);
      }
      return s + "]";
    };
    sql::Candidates cands =
        sql::Planner::Extract(scope, target, sel.where.get(), nullptr);
    if (!probes) cands.DropRuntime();
    const sql::JoinProbePlan plan =
        sql::Planner::Choose(*t, cands, use_order ? &order : nullptr);
    if (plan.is_lazy()) {
      return (plan.is_probe() ? "probe" : "range-probe") + cols(plan.columns);
    }
    const sql::AccessPlan& p = plan.eager;
    if (p.is_scan()) return "scan";
    std::string out = (p.is_index() ? "lookup" : "range") + cols(p.columns);
    if (p.ordered) out += " ordered";
    if (p.reverse) out += " reverse";
    if (p.covers_where) out += " covers";
    return out;
  }

  EngineFixture fix_;
};

TEST_F(PlannerTest, ChoicesArePinned) {
  struct Case {
    const char* select;
    size_t target;
    bool probes;
    const char* want;
  };
  const Case cases[] = {
      // Point vs range: a point plan scores 100 per key column + 60, a
      // range plan 100 per equality-pinned prefix column + 70 for a bound
      // (+ 10 when it serves the ORDER BY).
      {"SELECT 1 FROM T WHERE k = 3", 0, true, "lookup[0] covers"},
      {"SELECT 1 FROM T WHERE a = 1 AND b = 2", 0, true, "lookup[1,2] covers"},
      {"SELECT 1 FROM T WHERE c = 'x' AND a = 1", 0, true, "lookup[3]"},
      {"SELECT 1 FROM T WHERE c = 'x' AND a = 1 AND b > 5", 0, true,
       "range[1,2]"},
      {"SELECT 1 FROM T WHERE c = 'x' AND k > 5 ORDER BY k", 0, true,
       "lookup[3]"},
      {"SELECT 1 FROM T WHERE a = 1", 0, true, "range[1,2] covers"},
      {"SELECT 1 FROM T WHERE b > 5", 0, true, "scan"},
      // ORDER BY bonus and DESC.
      {"SELECT 1 FROM T ORDER BY k DESC", 0, true,
       "range[0] ordered reverse covers"},
      {"SELECT 1 FROM T WHERE a = 1 ORDER BY b DESC", 0, true,
       "range[1,2] ordered reverse covers"},
      {"SELECT 1 FROM T WHERE a > 3 ORDER BY k", 0, true, "range[1,2] covers"},
      {"SELECT 1 FROM T WHERE a > 3 ORDER BY a", 0, true,
       "range[1,2] ordered covers"},
      {"SELECT 1 FROM T, U WHERE a > 3 ORDER BY a", 0, true,
       "range[1,2] covers"},
      // covers_where (what lets a LIMIT push into the fetch).
      {"SELECT 1 FROM T WHERE a = 1 AND b >= 2 AND b < 9 LIMIT 3", 0, true,
       "range[1,2] covers"},
      {"SELECT 1 FROM T WHERE a = 1 AND b > 2 AND d = 1.5 LIMIT 3", 0, true,
       "range[1,2]"},
      {"SELECT 1 FROM T WHERE a = 1 AND a > 0", 0, true, "range[1,2]"},
      {"SELECT 1 FROM T WHERE k = 3 AND k = 4", 0, true, "lookup[0]"},
      // Lossy coercion and NULL demote a conjunct to residual-only.
      {"SELECT 1 FROM T WHERE k < 2.5", 0, true, "scan"},
      {"SELECT 1 FROM T WHERE k > '7'", 0, true, "scan"},
      {"SELECT 1 FROM T WHERE k = '7'", 0, true, "lookup[0] covers"},
      {"SELECT 1 FROM T WHERE k > 2.0", 0, true, "range[0] covers"},
      {"SELECT 1 FROM T WHERE k = NULL", 0, true, "scan"},
      {"SELECT 1 FROM T WHERE k = NULL AND k = 3", 0, true, "lookup[0]"},
      {"SELECT 1 FROM T WHERE a = NULL AND b > 1", 0, true, "scan"},
      // Depth > 0: a runtime-bound source makes a probe; constant-only
      // coverage stays eager.
      {"SELECT 1 FROM U, T WHERE T.k = U.x", 1, true, "probe[0]"},
      {"SELECT 1 FROM U, T WHERE T.c = U.s", 1, true, "probe[3]"},
      {"SELECT 1 FROM U, T WHERE U.x = T.k", 1, true, "probe[0]"},
      {"SELECT 1 FROM U, T WHERE T.a = U.x AND T.b > U.y", 1, true,
       "range-probe[1,2]"},
      {"SELECT 1 FROM U, T WHERE T.a = U.x AND T.b > 3", 1, true,
       "range-probe[1,2]"},
      {"SELECT 1 FROM U, T WHERE T.k > U.x", 1, true, "range-probe[0]"},
      {"SELECT 1 FROM U, T WHERE T.k = 5 AND T.c = U.s", 1, true, "probe[3]"},
      {"SELECT 1 FROM U, T WHERE T.k = 5 AND T.a = U.x", 1, true,
       "lookup[0]"},
      {"SELECT 1 FROM U, T WHERE T.k = 5", 1, true, "lookup[0] covers"},
      {"SELECT 1 FROM U, T WHERE T.k = U.s", 1, true, "scan"},
      {"SELECT 1 FROM U, T WHERE T.k = U.x", 0, true, "scan"},
      {"SELECT 1 FROM T, T WHERE T.k = 1", 1, true, "scan"},
      // Probes off: runtime-bound sources are dropped before choosing.
      {"SELECT 1 FROM U, T WHERE T.k = U.x", 1, false, "scan"},
      {"SELECT 1 FROM U, T WHERE T.k = 5 AND T.c = U.s", 1, false,
       "lookup[0]"},
      {"SELECT 1 FROM U, T WHERE T.a = U.x AND T.b > 3", 1, false, "scan"},
      {"SELECT 1 FROM U, T WHERE T.a = 2 AND T.b > U.y", 1, false,
       "range[1,2]"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(PlanOf(c.select, c.target, c.probes), c.want)
        << c.select << " (target " << c.target
        << (c.probes ? ")" : ", probes off)");
  }
}

TEST(SqlConcurrentScanTest, ConcurrentSelectsAgree) {
  EngineFixture fix;
  Session setup(fix.tm.get());
  ASSERT_OK(setup.Execute("CREATE TABLE Big (k INT, v VARCHAR)").status());
  constexpr int kRows = 600;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_OK(setup.Execute("INSERT INTO Big VALUES (" + std::to_string(i) +
                            ", 'v')")
                  .status());
  }

  // Unindexed predicate => every SELECT full-scans Big while the others'
  // scans of the same table are open.
  constexpr int kThreads = 3;
  constexpr int kIters = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session(fix.tm.get());
      for (int i = 0; i < kIters; ++i) {
        auto res = session.Execute("SELECT k FROM Big WHERE v = 'v'");
        if (!res.ok() || res.value().rows.size() != kRows) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fix.tm->stats().table_scans.load(),
            static_cast<uint64_t>(kThreads * kIters));
}

// --- Aggregates and GROUP BY: SQL NULL semantics, plan-time validation,
// --- and the batched-vs-row-at-a-time differential.

class AggregateSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>(fix_.tm.get());
    ASSERT_OK(session_->Execute("CREATE TABLE S (g VARCHAR, v INT)").status());
  }

  void ExpectPlanError(const std::string& stmt, const std::string& needle) {
    Status st = session_->Execute(stmt).status();
    EXPECT_FALSE(st.ok()) << stmt;
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << stmt << " -> " << st.message();
  }

  EngineFixture fix_;
  std::unique_ptr<Session> session_;
};

TEST_F(AggregateSessionTest, GlobalAggregatesSkipNulls) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', 1), ('a', NULL), "
                              "('b', 5), ('b', 2)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), "
                        "AVG(v) FROM S"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(4));  // COUNT(*) counts the NULL row
  EXPECT_EQ(r.rows[0][1], Value::Int(3));  // COUNT(v) skips it
  EXPECT_EQ(r.rows[0][2], Value::Int(8));
  EXPECT_EQ(r.rows[0][3], Value::Int(1));
  EXPECT_EQ(r.rows[0][4], Value::Int(5));
  EXPECT_EQ(r.rows[0][5], Value::Double(8.0 / 3.0));
}

TEST_F(AggregateSessionTest, AllNullColumnAggregatesToNull) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', NULL), ('b', NULL)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute(
          "SELECT COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM S"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(0));
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());
  EXPECT_TRUE(r.rows[0][4].is_null());
}

TEST_F(AggregateSessionTest, EmptyInputGlobalVsGrouped) {
  // A global aggregate over zero rows still yields exactly one row:
  // COUNT 0, everything else NULL. GROUP BY over zero rows yields none.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult global,
      session_->Execute("SELECT COUNT(*), SUM(v), AVG(v) FROM S"));
  ASSERT_EQ(global.rows.size(), 1u);
  EXPECT_EQ(global.rows[0][0], Value::Int(0));
  EXPECT_TRUE(global.rows[0][1].is_null());
  EXPECT_TRUE(global.rows[0][2].is_null());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult grouped,
      session_->Execute("SELECT g, COUNT(*) FROM S GROUP BY g"));
  EXPECT_EQ(grouped.rows.size(), 0u);
}

TEST_F(AggregateSessionTest, NullIsItsOwnGroupAndSortsFirst) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', 1), (NULL, 10), "
                              "('a', 2), (NULL, 20), ('b', 3)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT g, COUNT(*), SUM(v) FROM S GROUP BY g"));
  // Output is deterministically ordered by group key, NULL first.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1], Value::Int(2));
  EXPECT_EQ(r.rows[0][2], Value::Int(30));
  EXPECT_EQ(r.rows[1][0], Value::Str("a"));
  EXPECT_EQ(r.rows[1][2], Value::Int(3));
  EXPECT_EQ(r.rows[2][0], Value::Str("b"));
  EXPECT_EQ(r.rows[2][2], Value::Int(3));
}

TEST_F(AggregateSessionTest, GroupByWithWhereOrderByAndLimit) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(session_
                  ->Execute("INSERT INTO S VALUES ('g" +
                            std::to_string(i % 5) + "', " + std::to_string(i) +
                            ")")
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute("SELECT g, COUNT(*) AS n, MAX(v) FROM S "
                        "WHERE v >= 10 GROUP BY g ORDER BY g DESC LIMIT 2"));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value::Str("g4"));
  EXPECT_EQ(r.rows[0][1], Value::Int(4));
  EXPECT_EQ(r.rows[0][2], Value::Int(29));
  EXPECT_EQ(r.rows[1][0], Value::Str("g3"));
}

TEST_F(AggregateSessionTest, HavingFiltersGroups) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', 1), ('a', 2), "
                              "('b', 10), ('c', 3), ('c', 4), ('c', 5)")
                .status());
  // HAVING over a select-list aggregate.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult r,
      session_->Execute(
          "SELECT g, COUNT(*) FROM S GROUP BY g HAVING COUNT(*) > 1"));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value::Str("a"));
  EXPECT_EQ(r.rows[0][1], Value::Int(2));
  EXPECT_EQ(r.rows[1][0], Value::Str("c"));
  EXPECT_EQ(r.rows[1][1], Value::Int(3));

  // HAVING over an aggregate that is NOT in the select list (it rides in
  // the fold spec without appearing in the output), plus a grouped column
  // and a conjunction.
  ASSERT_OK_AND_ASSIGN(
      r, session_->Execute("SELECT g FROM S GROUP BY g "
                           "HAVING SUM(v) >= 10 AND g <> 'b'"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("c"));

  // HAVING composes with WHERE (row filter first), ORDER BY, and LIMIT
  // (both applied after the group filter).
  ASSERT_OK_AND_ASSIGN(
      r, session_->Execute("SELECT g, SUM(v) AS s FROM S WHERE v < 5 "
                           "GROUP BY g HAVING COUNT(*) >= 1 "
                           "ORDER BY s DESC LIMIT 2"));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value::Str("c"));
  EXPECT_EQ(r.rows[0][1], Value::Int(7));
  EXPECT_EQ(r.rows[1][0], Value::Str("a"));
  EXPECT_EQ(r.rows[1][1], Value::Int(3));

  // A HAVING that rejects every group yields zero rows (no global-group
  // resurrection: that rule is for aggregate queries without GROUP BY).
  ASSERT_OK_AND_ASSIGN(
      r, session_->Execute(
             "SELECT g FROM S GROUP BY g HAVING COUNT(*) > 100"));
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(AggregateSessionTest, HavingRejectionsHaveClearErrors) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', 1)").status());
  // HAVING requires GROUP BY (parse-time).
  EXPECT_FALSE(
      Parser::ParseStatement("SELECT COUNT(*) FROM S HAVING COUNT(*) > 0")
          .ok());
  // Ungrouped plain column in HAVING.
  ExpectPlanError("SELECT g, COUNT(*) FROM S GROUP BY g HAVING v > 1",
                  "must appear in GROUP BY");
  // Subqueries are not supported in HAVING.
  ExpectPlanError(
      "SELECT g FROM S GROUP BY g HAVING g IN (SELECT g FROM S)",
      "HAVING does not support");
  // Aggregate arguments are validated in HAVING exactly as in the select
  // list.
  ExpectPlanError("SELECT g FROM S GROUP BY g HAVING SUM(g) > 1", "numeric");
}

TEST_F(AggregateSessionTest, PlanTimeRejectionsHaveClearErrors) {
  ASSERT_OK(session_->Execute("INSERT INTO S VALUES ('a', 1)").status());
  // Non-grouped plain column in an aggregate query.
  ExpectPlanError("SELECT v, COUNT(*) FROM S GROUP BY g",
                  "must appear in GROUP BY");
  ExpectPlanError("SELECT g, COUNT(*) FROM S", "must appear in GROUP BY");
  // Aggregates are not allowed in WHERE.
  ExpectPlanError("SELECT COUNT(*) FROM S WHERE SUM(v) > 3",
                  "aggregates are not allowed in WHERE");
  // SUM/AVG need a numeric column.
  ExpectPlanError("SELECT SUM(g) FROM S", "numeric");
  ExpectPlanError("SELECT AVG(g) FROM S", "numeric");
  // Aggregate arguments must be plain columns.
  ExpectPlanError("SELECT SUM(v + 1) FROM S", "plain column");
  // '*' only belongs to COUNT.
  EXPECT_FALSE(Parser::ParseStatement("SELECT SUM(*) FROM S").ok());
  // An aggregate outside an aggregate query's SELECT list is rejected at
  // evaluation time wherever it survives parsing.
  EXPECT_FALSE(session_->Execute("UPDATE S SET v = COUNT(*)").ok());
}

TEST_F(AggregateSessionTest, AggregatesMatchScanAndFoldReference) {
  // Randomized contents; every aggregate result is re-derived in the test
  // from a plain SELECT of the same rows (the scan-and-fold reference),
  // under both the pushable (col-op-const WHERE) and residual-WHERE paths.
  std::mt19937_64 rng(20260808);
  for (int i = 0; i < 200; ++i) {
    std::string v = (rng() % 7 == 0) ? "NULL" : std::to_string(rng() % 100);
    ASSERT_OK(session_
                  ->Execute("INSERT INTO S VALUES ('g" +
                            std::to_string(rng() % 6) + "', " + v + ")")
                  .status());
  }
  const std::string wheres[] = {
      "",                            // no filter
      " WHERE v >= 40",              // pushable ColumnFilter
      " WHERE v >= 20 AND v < 70",   // two pushable conjuncts
      " WHERE v * 2 < 120",          // residual: not col-op-const
  };
  for (const std::string& where : wheres) {
    ASSERT_OK_AND_ASSIGN(sql::QueryResult base,
                         session_->Execute("SELECT g, v FROM S" + where));
    // Fold the reference rows by hand.
    std::map<std::string, std::array<int64_t, 4>> ref;  // count*, count, sum
    std::map<std::string, std::pair<int64_t, int64_t>> minmax;
    for (const Row& row : base.rows) {
      std::string g = row[0].is_null() ? "\x01null" : row[0].as_string();
      auto& a = ref[g];
      ++a[0];
      if (!row[1].is_null()) {
        ++a[1];
        a[2] += row[1].as_int();
        auto [it, fresh] = minmax.try_emplace(
            g, std::make_pair(row[1].as_int(), row[1].as_int()));
        if (!fresh) {
          it->second.first = std::min(it->second.first, row[1].as_int());
          it->second.second = std::max(it->second.second, row[1].as_int());
        }
      }
    }
    ASSERT_OK_AND_ASSIGN(
        sql::QueryResult agg,
        session_->Execute("SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), "
                          "MAX(v), AVG(v) FROM S" +
                          where + " GROUP BY g"));
    ASSERT_EQ(agg.rows.size(), ref.size()) << where;
    for (const Row& row : agg.rows) {
      std::string g = row[0].is_null() ? "\x01null" : row[0].as_string();
      ASSERT_TRUE(ref.count(g)) << where;
      const auto& a = ref[g];
      EXPECT_EQ(row[1], Value::Int(a[0])) << where;
      EXPECT_EQ(row[2], Value::Int(a[1])) << where;
      if (a[1] == 0) {
        EXPECT_TRUE(row[3].is_null()) << where;
        EXPECT_TRUE(row[6].is_null()) << where;
      } else {
        EXPECT_EQ(row[3], Value::Int(a[2])) << where;
        EXPECT_EQ(row[4], Value::Int(minmax[g].first)) << where;
        EXPECT_EQ(row[5], Value::Int(minmax[g].second)) << where;
        EXPECT_EQ(row[6], Value::Double(static_cast<double>(a[2]) /
                                        static_cast<double>(a[1])))
            << where;
      }
    }
  }
}

TEST(BatchDifferentialTest, RandomizedWorkloadMatchesRowAtATime) {
  // Drains at the default batch size (whole-chunk handoff) and at
  // max_rows 1 (set_batch_size(1), one row per NextBatch) must produce
  // identical results on every query shape: point lookups, residual WHERE
  // scans, ORDER BY with and without an ordered index, joins, and
  // aggregates.
  EngineFixture fix;
  Session session(fix.tm.get());
  ASSERT_OK(session.Execute("CREATE TABLE R (k INT PRIMARY KEY, a INT, "
                            "b VARCHAR)")
                .status());
  ASSERT_OK(session.Execute("CREATE INDEX ON R (a) USING ORDERED").status());
  ASSERT_OK(session.Execute("CREATE TABLE L (x INT, y INT)").status());
  std::mt19937_64 rng(20260807);
  for (int k = 0; k < 400; ++k) {
    std::string a = (rng() % 9 == 0) ? "NULL" : std::to_string(rng() % 300);
    ASSERT_OK(session
                  .Execute("INSERT INTO R VALUES (" + std::to_string(k) +
                           ", " + a + ", 'c" + std::to_string(rng() % 4) +
                           "')")
                  .status());
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(session
                  .Execute("INSERT INTO L VALUES (" +
                           std::to_string(rng() % 400) + ", " +
                           std::to_string(rng() % 50) + ")")
                  .status());
  }

  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  for (int q = 0; q < 60; ++q) {
    std::string query;
    bool ordered = false;
    switch (rng() % 6) {
      case 0:
        query = "SELECT a, b FROM R WHERE k = " + std::to_string(rng() % 450);
        break;
      case 1: {
        int64_t lo = static_cast<int64_t>(rng() % 250);
        query = "SELECT k, a FROM R WHERE a >= " + std::to_string(lo) +
                " AND a < " + std::to_string(lo + 60);
        break;
      }
      case 2:
        query = "SELECT k FROM R WHERE b = 'c" + std::to_string(rng() % 4) +
                "' ORDER BY a LIMIT 17";
        ordered = true;
        break;
      case 3:
        query = "SELECT k, a FROM R ORDER BY k DESC LIMIT 25";
        ordered = true;
        break;
      case 4:
        query = "SELECT R.k, L.y FROM L, R WHERE L.x = R.k AND L.y < " +
                std::to_string(rng() % 50);
        break;
      default:
        query = "SELECT b, COUNT(*), SUM(a) FROM R WHERE a >= " +
                std::to_string(rng() % 200) + " GROUP BY b";
        ordered = true;  // aggregate output is deterministically ordered
        break;
    }
    session.executor().set_batch_size(RowBatch::kDefaultRows);
    ASSERT_OK_AND_ASSIGN(sql::QueryResult batched, session.Execute(query));
    session.executor().set_batch_size(1);
    ASSERT_OK_AND_ASSIGN(sql::QueryResult scalar, session.Execute(query));
    session.executor().set_batch_size(RowBatch::kDefaultRows);
    if (ordered) {
      EXPECT_EQ(batched.rows, scalar.rows) << query;
    } else {
      EXPECT_EQ(sorted_rows(std::move(batched)), sorted_rows(std::move(scalar)))
          << query;
    }
  }
}

TEST(BatchDifferentialTest, StableUnderConcurrentWriters) {
  // Inside one reader transaction drains at batch size 256 and 1 must agree
  // exactly even while writers churn disjoint keys: Strict 2PL pins the
  // read set between the paired executions. Short lock timeout — failures
  // just retry the round.
  TransactionManager::Options options;
  options.lock_timeout_micros = 100'000;
  EngineFixture fix(options);
  Session session(fix.tm.get());
  ASSERT_OK(session.Execute("CREATE TABLE R (k INT PRIMARY KEY, a INT)")
                .status());
  for (int k = 0; k < 200; ++k) {
    ASSERT_OK(session
                  .Execute("INSERT INTO R VALUES (" + std::to_string(k) +
                           ", " + std::to_string((k * 17) % 90) + ")")
                  .status());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Session writer(fix.tm.get());
      int64_t next = 10000 + w * 100000;
      while (!stop.load()) {
        ++next;
        (void)writer.Execute("INSERT INTO R VALUES (" + std::to_string(next) +
                             ", " + std::to_string(next % 90) + ")");
        (void)writer.Execute("UPDATE R SET a = a + 1 WHERE k = " +
                             std::to_string(next));
      }
    });
  }

  const std::string queries[] = {
      "SELECT k FROM R WHERE a >= 30 AND a < 60",
      "SELECT a, COUNT(*) FROM R WHERE a < 45 GROUP BY a",
  };
  auto sorted_rows = [](sql::QueryResult r) {
    std::sort(r.rows.begin(), r.rows.end());
    return r.rows;
  };
  int compared = 0;
  for (int round = 0; round < 60 && compared < 16; ++round) {
    const std::string& query = queries[round % 2];
    ASSERT_OK(session.Execute("BEGIN TRANSACTION").status());
    session.executor().set_batch_size(RowBatch::kDefaultRows);
    auto batched = session.Execute(query);
    session.executor().set_batch_size(1);
    auto scalar = session.Execute(query);
    session.executor().set_batch_size(RowBatch::kDefaultRows);
    if (!batched.ok() || !scalar.ok()) {
      (void)session.Execute("ROLLBACK");
      continue;
    }
    ASSERT_OK(session.Execute("COMMIT").status());
    EXPECT_EQ(sorted_rows(std::move(batched).value()),
              sorted_rows(std::move(scalar).value()))
        << "divergence in round " << round << " on " << query;
    ++compared;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(compared, 0) << "every round timed out; nothing was compared";
}

}  // namespace
}  // namespace youtopia
