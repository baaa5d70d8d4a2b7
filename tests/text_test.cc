// Unit tests for src/text: tokenizer, stop words, Porter stemmer, term
// vectors and the analyzer pipeline.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"

namespace sprite::text {
namespace {

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, SplitsOnNonLetters) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Hello, world! 123 foo_bar"),
            (std::vector<std::string>{"hello", "world", "foo", "bar"}));
}

TEST(TokenizerTest, KeepDigitsMode) {
  Tokenizer t(TokenizerOptions{.keep_digits = true});
  EXPECT_EQ(t.Tokenize("mp3 files x86"),
            (std::vector<std::string>{"mp3", "files", "x86"}));
}

TEST(TokenizerTest, LowercasingCanBeDisabled) {
  Tokenizer t(TokenizerOptions{.lowercase = false});
  EXPECT_EQ(t.Tokenize("MiXeD"), (std::vector<std::string>{"MiXeD"}));
}

TEST(TokenizerTest, MinLengthDropsShortTokens) {
  Tokenizer t(TokenizerOptions{.min_token_length = 3});
  EXPECT_EQ(t.Tokenize("a an the cat"),
            (std::vector<std::string>{"the", "cat"}));
}

TEST(TokenizerTest, MaxLengthTruncates) {
  Tokenizer t(TokenizerOptions{.max_token_length = 4});
  EXPECT_EQ(t.Tokenize("abcdefgh"), (std::vector<std::string>{"abcd"}));
}

TEST(TokenizerTest, EmptyAndSeparatorOnlyInputs) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize(" \t\n.,;!?123").empty());
}

TEST(TokenizerTest, NonAsciiBytesAreSeparators) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("caf\xc3\xa9 bar"),
            (std::vector<std::string>{"caf", "bar"}));
}

// -------------------------------------------------------------- Stop words

TEST(StopWordsTest, DefaultSetMatchesLucene) {
  const auto& words = DefaultStopWords();
  EXPECT_EQ(words.size(), 33u);
  StopWordSet set = StopWordSet::Default();
  for (const char* w : {"a", "the", "is", "with", "their", "such"}) {
    EXPECT_TRUE(set.Contains(w)) << w;
  }
  EXPECT_FALSE(set.Contains("retrieval"));
  EXPECT_FALSE(set.Contains("peer"));
}

TEST(StopWordsTest, FilterPreservesOrderOfNonStopWords) {
  StopWordSet set = StopWordSet::Default();
  EXPECT_EQ(set.Filter({"the", "quick", "brown", "fox", "is", "a", "fox"}),
            (std::vector<std::string>{"quick", "brown", "fox", "fox"}));
}

TEST(StopWordsTest, EmptySetFiltersNothing) {
  StopWordSet set;
  EXPECT_EQ(set.Filter({"the", "a"}),
            (std::vector<std::string>{"the", "a"}));
}

TEST(StopWordsTest, AddExtendsTheSet) {
  StopWordSet set;
  set.Add("custom");
  EXPECT_TRUE(set.Contains("custom"));
  EXPECT_EQ(set.size(), 1u);
}

// ----------------------------------------------------------- Porter stemmer

struct StemCase {
  const char* in;
  const char* out;
};

class PorterStemmerParamTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerParamTest, StemsAsPublished) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem(GetParam().in), GetParam().out)
      << "input: " << GetParam().in;
}

// The worked examples from Porter (1980), every step.
INSTANTIATE_TEST_SUITE_P(
    Step1a, PorterStemmerParamTest,
    ::testing::Values(StemCase{"caresses", "caress"},
                      StemCase{"ponies", "poni"}, StemCase{"ties", "ti"},
                      StemCase{"caress", "caress"}, StemCase{"cats", "cat"}));

INSTANTIATE_TEST_SUITE_P(
    Step1b, PorterStemmerParamTest,
    ::testing::Values(StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
                      StemCase{"plastered", "plaster"},
                      StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
                      StemCase{"sing", "sing"},
                      StemCase{"conflated", "conflat"},
                      StemCase{"troubled", "troubl"},
                      StemCase{"sized", "size"}, StemCase{"hopping", "hop"},
                      StemCase{"tanned", "tan"}, StemCase{"falling", "fall"},
                      StemCase{"hissing", "hiss"}, StemCase{"fizzed", "fizz"},
                      StemCase{"failing", "fail"},
                      StemCase{"filing", "file"}));

INSTANTIATE_TEST_SUITE_P(Step1c, PorterStemmerParamTest,
                         ::testing::Values(StemCase{"happy", "happi"},
                                           StemCase{"sky", "sky"}));

INSTANTIATE_TEST_SUITE_P(
    Step2, PorterStemmerParamTest,
    ::testing::Values(StemCase{"relational", "relat"},
                      StemCase{"conditional", "condit"},
                      StemCase{"rational", "ration"},
                      StemCase{"valenci", "valenc"},
                      StemCase{"hesitanci", "hesit"},
                      StemCase{"digitizer", "digit"},
                      StemCase{"radicalli", "radic"},
                      StemCase{"differentli", "differ"},
                      StemCase{"vileli", "vile"},
                      StemCase{"analogousli", "analog"},
                      StemCase{"vietnamization", "vietnam"},
                      StemCase{"predication", "predic"},
                      StemCase{"operator", "oper"},
                      StemCase{"feudalism", "feudal"},
                      StemCase{"decisiveness", "decis"},
                      StemCase{"hopefulness", "hope"},
                      StemCase{"callousness", "callous"},
                      StemCase{"formaliti", "formal"},
                      StemCase{"sensitiviti", "sensit"},
                      StemCase{"sensibiliti", "sensibl"}));

INSTANTIATE_TEST_SUITE_P(
    Step3, PorterStemmerParamTest,
    ::testing::Values(StemCase{"triplicate", "triplic"},
                      StemCase{"formative", "form"},
                      StemCase{"formalize", "formal"},
                      StemCase{"electriciti", "electr"},
                      StemCase{"electrical", "electr"},
                      StemCase{"hopeful", "hope"},
                      StemCase{"goodness", "good"}));

INSTANTIATE_TEST_SUITE_P(
    Step4, PorterStemmerParamTest,
    ::testing::Values(StemCase{"revival", "reviv"},
                      StemCase{"allowance", "allow"},
                      StemCase{"inference", "infer"},
                      StemCase{"airliner", "airlin"},
                      StemCase{"gyroscopic", "gyroscop"},
                      StemCase{"adjustable", "adjust"},
                      StemCase{"defensible", "defens"},
                      StemCase{"irritant", "irrit"},
                      StemCase{"replacement", "replac"},
                      StemCase{"adjustment", "adjust"},
                      StemCase{"dependent", "depend"},
                      StemCase{"adoption", "adopt"},
                      StemCase{"communism", "commun"},
                      StemCase{"activate", "activ"},
                      StemCase{"angulariti", "angular"},
                      StemCase{"homologou", "homolog"},
                      StemCase{"effective", "effect"},
                      StemCase{"bowdlerize", "bowdler"}));

INSTANTIATE_TEST_SUITE_P(Step5, PorterStemmerParamTest,
                         ::testing::Values(StemCase{"probate", "probat"},
                                           StemCase{"rate", "rate"},
                                           StemCase{"cease", "ceas"},
                                           StemCase{"controll", "control"},
                                           StemCase{"roll", "roll"}));

// IR-domain words that the SPRITE pipeline will actually see.
INSTANTIATE_TEST_SUITE_P(
    DomainWords, PorterStemmerParamTest,
    ::testing::Values(StemCase{"retrieval", "retriev"},
                      StemCase{"queries", "queri"},
                      StemCase{"indexing", "index"},
                      StemCase{"distributed", "distribut"},
                      StemCase{"networks", "network"},
                      StemCase{"learning", "learn"},
                      StemCase{"documents", "document"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem(""), "");
  EXPECT_EQ(stemmer.Stem("a"), "a");
  EXPECT_EQ(stemmer.Stem("is"), "is");
  EXPECT_EQ(stemmer.Stem("as"), "as");
}

TEST(PorterStemmerTest, NonAlphaWordsUnchanged) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("x86abc"), "x86abc");
  EXPECT_EQ(stemmer.Stem("Mixed"), "Mixed");  // uppercase: caller lowercases
}

TEST(PorterStemmerTest, OutputNeverLongerThanInput) {
  PorterStemmer stemmer;
  for (const char* w :
       {"nationalization", "troublesomeness", "characteristically",
        "antidisestablishmentarianism", "zzz", "aaaa", "oscillators"}) {
    EXPECT_LE(stemmer.Stem(w).size(), std::string(w).size()) << w;
  }
}

TEST(PorterStemmerTest, StemOfStemIsStable) {
  // Not guaranteed by the algorithm in general, but holds for common
  // vocabulary; a regression here usually means a broken measure function.
  PorterStemmer stemmer;
  for (const char* w : {"running", "relational", "happiness", "engineering",
                        "computers", "distributed"}) {
    std::string once = stemmer.Stem(w);
    EXPECT_EQ(stemmer.Stem(once), once) << w;
  }
}

// ------------------------------------------------------------- TermVector

TEST(TermVectorTest, FromTokensCountsAndLength) {
  TermVector tv =
      TermVector::FromTokens({"cat", "dog", "cat", "bird", "cat"});
  EXPECT_EQ(tv.Count("cat"), 3u);
  EXPECT_EQ(tv.Count("dog"), 1u);
  EXPECT_EQ(tv.Count("absent"), 0u);
  EXPECT_EQ(tv.length(), 5u);
  EXPECT_EQ(tv.num_distinct_terms(), 3u);
  EXPECT_TRUE(tv.Contains("bird"));
  EXPECT_FALSE(tv.Contains("fish"));
}

TEST(TermVectorTest, NormalizedFreq) {
  TermVector tv = TermVector::FromTokens({"a", "a", "b", "c"});
  EXPECT_DOUBLE_EQ(tv.NormalizedFreq("a"), 0.5);
  EXPECT_DOUBLE_EQ(tv.NormalizedFreq("b"), 0.25);
  EXPECT_DOUBLE_EQ(tv.NormalizedFreq("zzz"), 0.0);
}

TEST(TermVectorTest, EmptyVector) {
  TermVector tv;
  EXPECT_TRUE(tv.empty());
  EXPECT_EQ(tv.length(), 0u);
  EXPECT_DOUBLE_EQ(tv.NormalizedFreq("x"), 0.0);
  EXPECT_TRUE(tv.TopK(3).empty());
}

TEST(TermVectorTest, AddWithCount) {
  TermVector tv;
  tv.Add("x", 4);
  tv.Add("x");
  tv.Add("y", 0);  // no-op
  EXPECT_EQ(tv.Count("x"), 5u);
  EXPECT_FALSE(tv.Contains("y"));
  EXPECT_EQ(tv.length(), 5u);
}

TEST(TermVectorTest, TopKOrdersByFreqThenTerm) {
  TermVector tv;
  tv.Add("beta", 2);
  tv.Add("alpha", 2);
  tv.Add("gamma", 5);
  tv.Add("delta", 1);
  auto top = tv.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].term, "gamma");
  EXPECT_EQ(top[1].term, "alpha");  // tie with beta: lexicographic
  EXPECT_EQ(top[2].term, "beta");
}

TEST(TermVectorTest, TopKLargerThanVocabulary) {
  TermVector tv = TermVector::FromTokens({"only", "two", "two"});
  EXPECT_EQ(tv.TopK(10).size(), 2u);
}

TEST(TermVectorTest, SortedTermsIsCompleteAndOrdered) {
  TermVector tv = TermVector::FromTokens({"b", "b", "a", "c", "c", "c"});
  auto sorted = tv.SortedTerms();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].term, "c");
  EXPECT_EQ(sorted[1].term, "b");
  EXPECT_EQ(sorted[2].term, "a");
}

// --------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, FullPipeline) {
  Analyzer analyzer;
  // "the" and "is" are stop words; the rest stems.
  EXPECT_EQ(analyzer.Analyze("The indexing of documents is queried"),
            (std::vector<std::string>{"index", "document", "queri"}));
}

TEST(AnalyzerTest, StemmingCanBeDisabled) {
  AnalyzerOptions options;
  options.stem = false;
  Analyzer analyzer(options);
  EXPECT_EQ(analyzer.Analyze("running dogs"),
            (std::vector<std::string>{"running", "dogs"}));
}

TEST(AnalyzerTest, StopwordRemovalCanBeDisabled) {
  AnalyzerOptions options;
  options.remove_stopwords = false;
  options.stem = false;
  Analyzer analyzer(options);
  EXPECT_EQ(analyzer.Analyze("the cat"),
            (std::vector<std::string>{"the", "cat"}));
}

TEST(AnalyzerTest, AnalyzeToVectorAggregates) {
  Analyzer analyzer;
  TermVector tv = analyzer.AnalyzeToVector(
      "Peers index terms; peers query terms; terms everywhere");
  EXPECT_EQ(tv.Count("term"), 3u);
  EXPECT_EQ(tv.Count("peer"), 2u);
  EXPECT_EQ(tv.Count("queri"), 1u);
}

TEST(AnalyzerTest, StopwordsRemovedBeforeStemming) {
  Analyzer analyzer;
  // "there" is a stop word and must not survive as stem "there"/"ther".
  auto tokens = analyzer.Analyze("there documents");
  EXPECT_EQ(tokens, (std::vector<std::string>{"document"}));
}

TEST(AnalyzerTest, EmptyInput) {
  Analyzer analyzer;
  EXPECT_TRUE(analyzer.Analyze("").empty());
  EXPECT_TRUE(analyzer.AnalyzeToVector(".,;").empty());
}

}  // namespace
}  // namespace sprite::text
