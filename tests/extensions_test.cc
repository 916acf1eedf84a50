// Tests for the §5.2 extension features: the failure-inducing context dump a
// signature carries. (The §2 multi-stage ladder is wdogd's, covered by
// supervisor_test.)
#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/watchdog/context.h"

namespace wdg {
namespace {

// --------------------------------------------------------------------- Dump

// A failure signature's context dump with more keys than any hook batch and
// one spill-block string (> 48 bytes): Dump() lists every key sorted by name,
// whatever the intern order, and carries the long string verbatim.
TEST(DumpTest, ManyKeysAndALongStringDumpSortedAndVerbatim) {
  // Interned first, so its slot sorts before the rt.k* keys while its name
  // sorts after them.
  static const auto kLong = ContextKey<std::string>::Of("rt.long");
  CheckContext ctx("c");
  for (int i = 0; i < 20; ++i) {
    ctx.Set(ContextKey<int64_t>::Of(StrFormat("rt.k%02d", i)), i * 11);
  }
  const std::string long_value(300, 'L');
  ctx.Set(kLong, long_value);
  ctx.MarkReady(1);
  EXPECT_EQ(ctx.Snapshot().size(), 21u);

  std::string expected = "{";
  for (int i = 0; i < 20; ++i) {
    expected += StrFormat("rt.k%02d=i:%d, ", i, i * 11);
  }
  expected += "rt.long=s:" + long_value + "}";
  EXPECT_EQ(ctx.Dump(), expected);
}

}  // namespace
}  // namespace wdg
