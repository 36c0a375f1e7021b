#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/schema.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/statusor.h"
#include "src/common/strings.h"
#include "src/common/value.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

TEST(StatusTest, OkAndErrorBasics) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status nf = Status::NotFound("table Foo");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: table Foo");
  EXPECT_EQ(nf.code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Aborted("boom"); };
  auto wrapper = [&]() -> Status {
    YT_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kAborted);
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::TimedOut("late");
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsTimedOut());
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto get = [](bool ok) -> StatusOr<std::string> {
    if (!ok) return Status::NotFound("nope");
    return std::string("yes");
  };
  auto use = [&](bool ok) -> StatusOr<size_t> {
    YT_ASSIGN_OR_RETURN(std::string s, get(ok));
    return s.size();
  };
  EXPECT_EQ(use(true).value(), 3u);
  EXPECT_EQ(use(false).status().code(), StatusCode::kNotFound);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
  EXPECT_DOUBLE_EQ(Value::Double(1.5).as_double(), 1.5);
  EXPECT_TRUE(Value::Bool(true).as_bool());
  EXPECT_EQ(Value::Int(7).type(), TypeId::kInt64);
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
  // Hash consistency for equal cross-type numerics.
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // NULL < BOOL < numeric < string.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(999), Value::Str(""));
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(Value::Add(Value::Int(2), Value::Int(3)).value(), Value::Int(5));
  EXPECT_EQ(Value::Sub(Value::Int(506), Value::Int(503)).value(),
            Value::Int(3));
  EXPECT_EQ(Value::Mul(Value::Int(4), Value::Double(0.5)).value(),
            Value::Double(2.0));
  EXPECT_EQ(Value::Div(Value::Int(9), Value::Int(3)).value(), Value::Int(3));
  EXPECT_FALSE(Value::Div(Value::Int(1), Value::Int(0)).ok());
  EXPECT_EQ(Value::Add(Value::Str("a"), Value::Str("b")).value(),
            Value::Str("ab"));
  EXPECT_TRUE(Value::Add(Value::Null(), Value::Int(1)).value().is_null());
  EXPECT_FALSE(Value::Sub(Value::Str("a"), Value::Int(1)).ok());
}

TEST(ValueTest, Coercion) {
  EXPECT_EQ(Value::Str("42").CoerceTo(TypeId::kInt64).value(), Value::Int(42));
  EXPECT_EQ(Value::Int(1).CoerceTo(TypeId::kString).value(), Value::Str("1"));
  EXPECT_EQ(Value::Double(3.0).CoerceTo(TypeId::kInt64).value(),
            Value::Int(3));
  EXPECT_FALSE(Value::Double(3.5).CoerceTo(TypeId::kInt64).ok());
  EXPECT_FALSE(Value::Str("xyz").CoerceTo(TypeId::kInt64).ok());
  EXPECT_TRUE(Value::Null().CoerceTo(TypeId::kInt64).value().is_null());
}

TEST(ValueTest, TruthinessFollowsSqlishCoercion) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_TRUE(Value::Str("x").Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
}

TEST(TypeTest, ParseNames) {
  EXPECT_EQ(TypeFromName("INT").value(), TypeId::kInt64);
  EXPECT_EQ(TypeFromName("bigint").value(), TypeId::kInt64);
  EXPECT_EQ(TypeFromName("VarChar").value(), TypeId::kString);
  EXPECT_EQ(TypeFromName("DOUBLE").value(), TypeId::kDouble);
  EXPECT_EQ(TypeFromName("BOOLEAN").value(), TypeId::kBool);
  EXPECT_FALSE(TypeFromName("BLOB").ok());
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema s({{"Uid", TypeId::kInt64}, {"Hometown", TypeId::kString}});
  EXPECT_EQ(s.IndexOf("uid").value(), 0u);
  EXPECT_EQ(s.IndexOf("HOMETOWN").value(), 1u);
  EXPECT_FALSE(s.IndexOf("nope").ok());
  EXPECT_TRUE(s.HasColumn("hometown"));
  EXPECT_EQ(s.ToString(), "(Uid INT, Hometown VARCHAR)");
}

TEST(RowTest, CompareAndHash) {
  Row a({Value::Int(1), Value::Str("x")});
  Row b({Value::Int(1), Value::Str("x")});
  Row c({Value::Int(1), Value::Str("y")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_LT(a.Compare(c), 0);
  EXPECT_EQ(Row::Concat(a, c).size(), 4u);
}

TEST(StringsTest, Helpers) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(SerdeTest, RoundTripValuesAndRows) {
  std::vector<Value> vals = {Value::Null(), Value::Bool(true), Value::Int(-5),
                             Value::Double(2.25), Value::Str("hello")};
  for (const Value& v : vals) {
    std::string buf;
    EncodeValue(&buf, v);
    const char* p = buf.data();
    Value out;
    ASSERT_OK(DecodeValue(&p, buf.data() + buf.size(), &out));
    EXPECT_EQ(out, v) << v.ToString();
  }
  Row row({Value::Int(1), Value::Str("two"), Value::Double(3.0)});
  std::string buf;
  EncodeRow(&buf, row);
  const char* p = buf.data();
  Row out;
  ASSERT_OK(DecodeRow(&p, buf.data() + buf.size(), &out));
  EXPECT_EQ(out, row);
}

TEST(SerdeTest, TruncationIsCorruptionNotCrash) {
  std::string buf;
  EncodeRow(&buf, Row({Value::Str("abcdefgh")}));
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string part = buf.substr(0, cut);
    const char* p = part.data();
    Row out;
    Status s = DecodeRow(&p, part.data() + part.size(), &out);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
  }
}

TEST(SerdeTest, Crc32KnownVector) {
  // CRC32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(SerdeTest, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  // The plain one-table, one-byte-per-step CRC32 the slice-by-8 loop must
  // reproduce bit for bit (WAL and checkpoint files depend on it).
  auto reference = [](std::string_view data) {
    uint32_t c = 0xFFFFFFFFu;
    for (unsigned char ch : data) {
      c ^= ch;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::string buf(64 + 8, '\0');
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>((i * 131 + 7) ^ (i >> 3));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view slice(buf.data() + start, len);
      EXPECT_EQ(Crc32(slice), reference(slice))
          << "start " << start << " len " << len;
    }
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  std::vector<int64_t> va, vb, vc;
  for (int i = 0; i < 32; ++i) {
    va.push_back(a.Uniform(0, 1000));
    vb.push_back(b.Uniform(0, 1000));
    vc.push_back(c.Uniform(0, 1000));
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RngTest, BoundsRespected) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    size_t z = r.Zipf(10, 0.9);
    EXPECT_LT(z, 10u);
  }
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepMicros(25);  // sleeping advances virtual time
  EXPECT_EQ(clock.NowMicros(), 175);
  Stopwatch sw(&clock);
  clock.Advance(1000);
  EXPECT_EQ(sw.ElapsedMicros(), 1000);
}

}  // namespace
}  // namespace youtopia
