// Unit tests for the `.pn` text format (lexer, parser, writer) and DOT export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "nets/paper_nets.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/net_class.hpp"
#include "pn/structure.hpp"
#include "pnio/dot.hpp"
#include "pnio/lexer.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"

namespace fcqss::pnio {
namespace {

TEST(lexer, token_stream)
{
    const auto tokens = tokenize("net x { places { p1(3); } } # comment\n-> * ;");
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].kind, token_kind::identifier);
    EXPECT_EQ(tokens[0].text, "net");
    EXPECT_EQ(tokens[1].text, "x");
    EXPECT_EQ(tokens[2].kind, token_kind::left_brace);
    // Find the integer token.
    bool saw_integer = false;
    for (const token& t : tokens) {
        if (t.kind == token_kind::integer) {
            saw_integer = true;
            EXPECT_EQ(t.value, 3);
        }
    }
    EXPECT_TRUE(saw_integer);
    EXPECT_EQ(tokens.back().kind, token_kind::end_of_input);
}

TEST(lexer, positions_and_errors)
{
    const auto tokens = tokenize("ab\n  cd");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[0].column, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[1].column, 3);

    EXPECT_THROW((void)tokenize("a @ b"), parse_error);
    EXPECT_THROW((void)tokenize("a - b"), parse_error); // '-' without '>'
    EXPECT_THROW((void)tokenize("99999999999999999999999"), parse_error);
    try {
        (void)tokenize("x\n  ?");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.column(), 3);
    }
}

TEST(parser, round_trip_simple)
{
    const char* source = R"(
net demo {
  places { a(2); b; }
  transitions { t; u; }
  arcs {
    a -> t * 2;
    t -> b;
    b -> u;
  }
}
)";
    const pn::petri_net net = parse_net(source);
    EXPECT_EQ(net.name(), "demo");
    EXPECT_EQ(net.place_count(), 2u);
    EXPECT_EQ(net.transition_count(), 2u);
    EXPECT_EQ(net.initial_tokens(net.find_place("a")), 2);
    EXPECT_EQ(net.arc_weight(net.find_place("a"), net.find_transition("t")), 2);
    EXPECT_EQ(net.arc_weight(net.find_transition("t"), net.find_place("b")), 1);
}

TEST(parser, sections_may_interleave)
{
    const char* source =
        "net x { places { p; } transitions { t; } arcs { t -> p; } "
        "places { q; } arcs { q -> t; } }";
    const pn::petri_net net = parse_net(source);
    EXPECT_EQ(net.place_count(), 2u);
    EXPECT_EQ(net.arc_count(), 2u);
}

TEST(parser, diagnostics)
{
    EXPECT_THROW((void)parse_net("places { }"), parse_error);       // missing net
    EXPECT_THROW((void)parse_net("net x { bogus { } }"), parse_error);
    EXPECT_THROW((void)parse_net("net x { places { p } }"), parse_error); // missing ';'
    EXPECT_THROW((void)parse_net("net x { arcs { a -> b; } }"), parse_error); // unknown
    EXPECT_THROW((void)parse_net("net x { places { p; q; } arcs { p -> q; } }"),
                 parse_error); // place -> place
    EXPECT_THROW((void)parse_net("net x { places { p; } transitions { t; } arcs "
                                 "{ p -> t * 0; } }"),
                 parse_error); // zero weight
    EXPECT_THROW((void)parse_net("net x { places { p; p; } }"), model_error);
}

TEST(writer, round_trips_paper_nets)
{
    for (const pn::petri_net& original :
         {nets::figure_2(), nets::figure_3a(), nets::figure_3b(), nets::figure_4(),
          nets::figure_5(), nets::figure_7()}) {
        const std::string text = write_net(original);
        const pn::petri_net reparsed = parse_net(text);
        EXPECT_EQ(reparsed.name(), original.name());
        EXPECT_EQ(reparsed.place_count(), original.place_count());
        EXPECT_EQ(reparsed.transition_count(), original.transition_count());
        EXPECT_EQ(reparsed.arc_count(), original.arc_count());
        for (pn::place_id p : original.places()) {
            const pn::place_id q = reparsed.find_place(original.place_name(p));
            ASSERT_TRUE(q.valid());
            EXPECT_EQ(reparsed.initial_tokens(q), original.initial_tokens(p));
        }
        for (pn::transition_id t : original.transitions()) {
            const pn::transition_id u =
                reparsed.find_transition(original.transition_name(t));
            ASSERT_TRUE(u.valid());
            for (const pn::place_weight& in : original.inputs(t)) {
                EXPECT_EQ(reparsed.arc_weight(
                              reparsed.find_place(original.place_name(in.place)), u),
                          in.weight);
            }
        }
        EXPECT_EQ(pn::classify(reparsed), pn::classify(original));
    }
}

TEST(writer, file_round_trip)
{
    const std::string path = ::testing::TempDir() + "fcqss_roundtrip.pn";
    save_net(nets::figure_4(), path);
    const pn::petri_net loaded = load_net(path);
    EXPECT_EQ(loaded.name(), "fig4");
    EXPECT_EQ(loaded.arc_weight(loaded.find_place("p2"), loaded.find_transition("t4")),
              2);
    std::remove(path.c_str());

    EXPECT_THROW((void)load_net("/nonexistent/path/x.pn"), error);
}

TEST(writer, load_errors_carry_the_file_path)
{
    const std::string path = ::testing::TempDir() + "fcqss_bad_syntax.pn";
    {
        std::ofstream out(path);
        out << "net broken { places { p } }"; // missing ';'
    }
    try {
        (void)load_net(path);
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
        EXPECT_GT(e.line(), 0); // location survives the rewrap
    }
    {
        std::ofstream out(path);
        out << "net broken { places { p; p; } }"; // duplicate place
    }
    try {
        (void)load_net(path);
        FAIL() << "expected model_error";
    } catch (const model_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(dot, renders_structure)
{
    dot_options options;
    options.highlight_transitions = {nets::figure_3a().find_transition("t2")};
    const std::string dot = to_dot(nets::figure_3a(), options);
    EXPECT_NE(dot.find("digraph \"fig3a\""), std::string::npos);
    EXPECT_NE(dot.find("\"p1\" [shape=circle]"), std::string::npos);
    EXPECT_NE(dot.find("\"t1\" [shape=box]"), std::string::npos);
    EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
    EXPECT_NE(dot.find("\"p1\" -> \"t2\""), std::string::npos);
}

TEST(dot, weight_labels_and_tokens)
{
    const std::string dot = to_dot(nets::figure_2());
    EXPECT_NE(dot.find("label=\"2\""), std::string::npos);

    dot_options plain;
    plain.show_weights = false;
    EXPECT_EQ(to_dot(nets::figure_2(), plain).find("label=\"2\""), std::string::npos);
}

// Fuzz: arbitrary token soup must parse cleanly or throw a library error —
// never crash, hang, or corrupt memory.
class parser_fuzz : public ::testing::TestWithParam<int> {};

TEST_P(parser_fuzz, never_crashes)
{
    std::uint64_t state =
        static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1;
    const auto rnd = [&state](std::uint64_t bound) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return (state * 0x2545f4914f6cdd1dULL) % bound;
    };
    static const char* fragments[] = {"net",   "places", "transitions", "arcs", "{",
                                      "}",     "(",      ")",           ";",    "->",
                                      "*",     "p1",     "t1",          "x",    "42",
                                      "0",     "#c\n",   " ",           "\n",   "99999",
                                      "net n", "_a"};
    std::string soup;
    const std::size_t pieces = 1 + rnd(40);
    for (std::size_t i = 0; i < pieces; ++i) {
        soup += fragments[rnd(std::size(fragments))];
        soup += ' ';
    }
    try {
        const pn::petri_net net = parse_net(soup);
        EXPECT_GT(net.place_count() + net.transition_count(), 0u);
    } catch (const parse_error&) {
    } catch (const model_error&) {
    }
}

INSTANTIATE_TEST_SUITE_P(soups, parser_fuzz, ::testing::Range(0, 50));

// The writer emits exactly the text the parser accepts: every generated
// net must survive parse(write(net)) with a byte-identical re-rendering.
TEST(parser, generator_round_trip)
{
    for (const auto family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        pipeline::generator_options options;
        options.family = family;
        options.token_load = 2;
        options.defect_percent = 25; // defective nets must round-trip too
        pipeline::net_generator generator(7, options);
        for (int i = 0; i < 8; ++i) {
            const pn::petri_net net = generator.next();
            const std::string text = write_net(net);
            const pn::petri_net reparsed = parse_net(text);
            EXPECT_EQ(write_net(reparsed), text)
                << "family " << pipeline::to_string(family) << " net " << i;
        }
    }
}

// Cutting a valid model at any byte must yield a clean parse_error (or a
// smaller-but-valid model), never a crash or an out-of-range read.
TEST(parser, truncation_sweep_never_crashes)
{
    pipeline::net_generator generator(11, {});
    const std::string source = write_net(generator.next());
    ASSERT_GT(source.size(), 50u);
    for (std::size_t cut = 0; cut < source.size(); ++cut) {
        try {
            (void)parse_net(source.substr(0, cut));
        } catch (const error&) {
            // any fcqss error (parse/model) is an acceptable verdict
        }
    }
}

// Deterministic binary garbage — including NUL bytes and high bit patterns
// — must always produce a clean error, never UB.
TEST(parser, binary_garbage_never_crashes)
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next_byte = [&state] {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return static_cast<char>((state * 0x2545f4914f6cdd1dULL) >> 56);
    };
    for (int round = 0; round < 64; ++round) {
        std::string soup(1 + round * 7, '\0');
        for (char& c : soup) {
            c = next_byte();
        }
        try {
            (void)parse_net(soup);
        } catch (const error&) {
        }
    }
}

// -- parse limits: adversarial input must hit resource_limit_error ---------

TEST(limits, oversized_input_is_rejected_up_front)
{
    parse_limits limits;
    limits.max_input_bytes = 64;
    const std::string big(65, ' ');
    EXPECT_THROW((void)tokenize(big, limits), resource_limit_error);
    EXPECT_THROW((void)parse_net(big, limits), resource_limit_error);
    // At the bound (all whitespace) the input tokenizes fine.
    EXPECT_NO_THROW((void)tokenize(std::string(64, ' '), limits));
}

TEST(limits, token_flood_is_bounded)
{
    parse_limits limits;
    limits.max_tokens = 100;
    std::string flood = "net x { places { ";
    for (int i = 0; i < 200; ++i) {
        flood += 'p';
        flood += std::to_string(i);
        flood += "; ";
    }
    flood += "} }";
    EXPECT_THROW((void)parse_net(flood, limits), resource_limit_error);
}

TEST(limits, element_counts_are_bounded)
{
    const auto net_with = [](int places, int transitions, int arcs) {
        std::string text = "net x {\n  places { ";
        for (int i = 0; i < places; ++i) {
            text += 'p';
            text += std::to_string(i);
            text += "; ";
        }
        text += "}\n  transitions { ";
        for (int i = 0; i < transitions; ++i) {
            text += 't';
            text += std::to_string(i);
            text += "; ";
        }
        text += "}\n  arcs { ";
        for (int i = 0; i < arcs; ++i) {
            // distinct arcs, so the limit trips before any duplicate check
            text += 'p';
            text += std::to_string(i % places);
            text += " -> t";
            text += std::to_string(i % transitions);
            text += " * ";
            text += std::to_string(i + 1);
            text += "; ";
        }
        text += "}\n}\n";
        return text;
    };

    parse_limits limits;
    limits.max_places = 4;
    EXPECT_THROW((void)parse_net(net_with(5, 1, 0), limits), resource_limit_error);
    EXPECT_NO_THROW((void)parse_net(net_with(4, 1, 0), limits));

    limits = parse_limits{};
    limits.max_transitions = 3;
    EXPECT_THROW((void)parse_net(net_with(1, 4, 0), limits), resource_limit_error);

    limits = parse_limits{};
    limits.max_arcs = 2;
    EXPECT_THROW((void)parse_net(net_with(3, 3, 3), limits), resource_limit_error);
}

TEST(strings, helpers)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(trim("  x y \t"), "x y");
    EXPECT_TRUE(starts_with("foobar", "foo"));
    EXPECT_FALSE(starts_with("fo", "foo"));
    EXPECT_TRUE(is_c_identifier("_a9"));
    EXPECT_FALSE(is_c_identifier("9a"));
    EXPECT_FALSE(is_c_identifier(""));
    EXPECT_FALSE(is_c_identifier("a-b"));
    EXPECT_EQ(sanitize_c_identifier("9a-b"), "_9a_b");
    EXPECT_EQ(sanitize_c_identifier(""), "_");
    EXPECT_EQ(count_nonblank_lines("a\n\n  \nb\n"), 2);
    EXPECT_EQ(count_nonblank_lines("x"), 1);
    EXPECT_EQ(count_nonblank_lines(""), 0);
}

} // namespace
} // namespace fcqss::pnio
