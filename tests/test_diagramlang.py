import random
import re
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catsl2.exactpoly import Polynomial
from catsl2.grassrings import GrassContext, bubble_value
from catsl2.bimodules import BimElement, FlagPath
from catsl2.cli import main
from catsl2.twomorphisms import (
    SignedWord,
    audit_degree,
    compose_chain,
    identity_map,
    junction_mult,
    map_equals,
    zero_map,
)
from catsl2.diagramlang import (
    MAX_DIAGRAM_RANK,
    TOKEN_SHAPES,
    DiagramAST,
    DiagramError,
    ZeroDiagramWarning,
    compile_diagram,
    parse_diagram,
    parse_element,
    render_diagram,
)
from helpers import (
    all_paths,
    by_vector,
    compile_by_layer_walk,
    record_new_maps,
    table_degree_sum,
    ygen,
)

DIAGRAM_DIR = Path(__file__).resolve().parent.parent / "docs" / "diagrams"


# -- parsing --------------------------------------------------------------------


def test_parse_bubble_diagram():
    ast = parse_diagram("N = 1\nweight = -1\ndomain = 1\n"
                        "layer: cup_fe\nlayer: cap_fe\n")
    assert ast.N == 1 and ast.domain.weight == -1
    assert ast.domain == SignedWord((), -1)
    assert ast.layers == (("cup_fe",), ("cap_fe",))


def test_parse_single_crossing():
    ast = parse_diagram("N = 2\nweight = -2\ndomain = E E\nlayer: cross_ee\n")
    assert ast.domain.letters == ("E", "E")
    assert ast.places == ((2,),)       # the crossing acts on factors 1 and 2


def test_parse_comments_and_blanks():
    ast = parse_diagram("# a bubble\nN = 1\n\nweight = -1\n"
                        "domain = 1   # identity domain\nlayer: cup_fe\n"
                        "layer: cap_fe\n")
    assert len(ast.layers) == 2


def test_arity_error_reports_span():
    with pytest.raises(DiagramError) as err:
        parse_diagram("N = 1\nweight = -1\ndomain = E\nlayer: cap_fe\n")
    assert "cap_fe consumes 2 strands, found 1" in str(err.value)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("text, line", [
    ("N = 2\nweight = 0\ndomain = E F\nlayer: id_e\n", 4),
    ("N = 2\nweight = 0\ndomain = E F\nlayer: id_e id_f\nlayer:\n", 5),
    ("N = 2\n# rank two\nweight = 1\ndomain = E F\n", 3),
], ids=["short_layer", "empty_layer", "parity"])
def test_layer_and_parity_errors_carry_their_line(tmp_path, capsys, text, line):
    # a layer that leaves strands unconsumed names its own line, a parity
    # error the weight header's
    with pytest.raises(DiagramError) as err:
        parse_diagram(text)
    assert err.value.line == line <= len(text.splitlines())
    assert str(err.value).startswith("line %d: " % line)
    diagram = tmp_path / "bad.cat"
    diagram.write_text(text)
    assert main(["eval", "--diagram", str(diagram), "--element", "1"]) == 2
    assert "line %d: " % line in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("N = 1\nweight = -1\nlayer: cup_fe\n", 3),
    ("N = 1\ndomain = 1\n\n# no weight\n", 4),
    ("weight = 0\ndomain = 1\nlayer: cup_fe\nlayer: cap_fe", 4),
], ids=["no_domain", "no_weight_trailing_comment", "no_N_no_newline"])
def test_missing_header_names_the_last_line(tmp_path, capsys, text, line):
    with pytest.raises(DiagramError) as err:
        parse_diagram(text)
    assert err.value.line == line == len(text.splitlines())
    assert str(err.value).startswith("line %d: missing header " % line)
    diagram = tmp_path / "bad.cat"
    diagram.write_text(text)
    assert main(["eval", "--diagram", str(diagram), "--element", "1"]) == 2
    assert "line %d: missing header " % line in capsys.readouterr().err


def test_missing_header_in_an_empty_text_has_no_line():
    with pytest.raises(DiagramError) as err:
        parse_diagram("")
    assert err.value.line is None
    assert str(err.value) == "missing header 'N'"


def test_orientation_error():
    with pytest.raises(DiagramError) as err:
        parse_diagram("N = 2\nweight = 0\ndomain = E F\nlayer: cross_ee\n")
    assert "needs strands E E, found E F" in str(err.value)


def test_unknown_token_error():
    with pytest.raises(DiagramError) as err:
        parse_diagram("N = 1\nweight = -1\ndomain = 1\nlayer: cupfe\n")
    assert "unknown token" in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (4, 8, 12)


def test_unknown_token_in_a_diagram_built_in_code(capsys):
    # the type check, not only the parser, names an unknown token, with the
    # span that the AST's lines give it
    lines = (1, 2, [(3, [(8, 12)])])
    with pytest.raises(DiagramError) as err:
        DiagramAST(1, SignedWord((), -1), [("bogus",)], lines)
    assert str(err.value) == "line 3, cols 8-12: unknown token 'bogus'"
    # a token that is not a name is refused there too, not by a traceback
    for token, kind in [(5, "int"), (["x"], "list")]:
        with pytest.raises(DiagramError) as err:
            DiagramAST(1, SignedWord((), -1), [(token,)])
        assert str(err.value) == "unknown token of type %s" % kind
    # a domain letter other than E and F is refused by the word itself,
    # with the text of ``rank --word``, so compile_word never reads it as F
    assert main(["rank", "--N", "3", "--word", "X", "--weight", "1"]) == 2
    rank_err = capsys.readouterr().err
    with pytest.raises(ValueError) as err:
        DiagramAST(3, SignedWord(("X",), 1), [])
    assert rank_err == "catsl2: error: %s\n" % err.value
    assert str(err.value) == "letters must be 'E' or 'F', separated by blanks; got 'X'"
    # letters that are not a tuple of str are refused with a message of their
    # own, so a string "EF" never renders as the domain E F
    for letters, weight in [((5,), 1), ("EF", 0), (["E"], 1)]:
        with pytest.raises(ValueError) as err:
            SignedWord(letters, weight)
        assert str(err.value) == "letters must be a tuple of str"
    # a weight that is not an int is refused by the word, so compile_word
    # never adds a str to an int or reads 1.5 as the weight 1
    for weight in ("1", 1.5, None, True):
        with pytest.raises(TypeError) as err:
            SignedWord(("E",), weight)
        assert str(err.value) == "weight must be an int, not %s" % type(weight).__name__


def test_header_errors():
    with pytest.raises(DiagramError):
        parse_diagram("N = 1\nweight = -1\nlayer: cup_fe\n")
    with pytest.raises(DiagramError):
        parse_diagram("N = x\nweight = -1\ndomain = 1\n")
    with pytest.raises(DiagramError):
        parse_diagram("N = 1\nN = 2\nweight = -1\ndomain = 1\n")
    with pytest.raises(DiagramError):
        parse_diagram("N = 1\nweight = 0\ndomain = 1\n")   # parity


# -- random round trip ---------------------------------------------------------------


def _random_ast(rng):
    N = rng.randrange(1, 4)
    k0 = rng.randrange(0, N + 1)
    weight = 2 * k0 - N
    letters = tuple(rng.choice("EF") for _ in range(rng.randrange(0, 4)))
    word = list(letters)
    layers = []
    for _ in range(rng.randrange(1, 5)):
        layer = []
        produced = []
        pos = 0
        while True:
            if len(word) + 2 <= 6 and rng.random() < 0.15:
                kind = rng.choice(("cup_fe", "cup_ef"))
                layer.append(kind)
                produced.extend(("F", "E") if kind == "cup_fe" else ("E", "F"))
                continue
            if pos >= len(word):
                break
            here = word[pos]
            options = ["id", "dot"]
            if pos + 1 < len(word):
                pair = (word[pos], word[pos + 1])
                if pair in (("E", "E"), ("F", "F")):
                    options.append("cross")
                if pair in (("F", "E"), ("E", "F")):
                    options.append("cap")
            pick = rng.choice(options)
            if pick == "id":
                layer.append("id_" + here.lower())
                produced.append(here)
                pos += 1
            elif pick == "dot":
                layer.append("dot_" + here.lower())
                produced.append(here)
                pos += 1
            elif pick == "cross":
                layer.append("cross_" + (here * 2).lower())
                produced.extend(word[pos:pos + 2])
                pos += 2
            else:
                layer.append("cap_" + word[pos].lower() + word[pos + 1].lower())
                pos += 2
        layers.append(tuple(layer))
        word = produced
    return DiagramAST(N, SignedWord(letters, weight), layers)


def test_parse_render_round_trip():
    rng = random.Random(2718)
    for _ in range(100):
        ast = _random_ast(rng)
        assert parse_diagram(render_diagram(ast)) == ast


def test_an_ast_states_its_weight_once():
    # the weight is the domain word's: an AST built in code renders it, and
    # its rendering reparses to an equal AST that compiles on the same path
    ast = DiagramAST(2, SignedWord((), 0), [("cup_fe",)])
    assert render_diagram(ast) == "N = 2\nweight = 0\ndomain = 1\nlayer: cup_fe\n"
    again = parse_diagram(render_diagram(ast))
    assert again == ast and repr(again) == repr(ast)
    assert compile_diagram(again).domain == compile_diagram(ast).domain == FlagPath(2, (1,))
    # a layer holds token names: the one-layer cup built in code compiles
    # to the map of the parsed one
    built = compile_diagram(DiagramAST(1, SignedWord((), -1), [("cup_fe",)]))
    parsed = compile_diagram(parse_diagram("N = 1\nweight = -1\ndomain = 1\nlayer: cup_fe\n"))
    assert repr(built) == repr(parsed) == "BimMap(cup_fe@0: (0) -> (0,1,0), deg 0)"
    ok, report = map_equals(built, parsed)
    assert ok, report


# -- compilation ------------------------------------------------------------------------


def test_compile_dot_only():
    ast = parse_diagram("N = 2\nweight = 0\ndomain = E\nlayer: dot_e\n")
    diagram = compile_diagram(ast)
    assert diagram.degree == 2
    assert by_vector(diagram.apply_vec((0,))) == {(1,): Polynomial.one()}


def test_compile_worked_zigzag():
    ast = parse_diagram((DIAGRAM_DIR / "zigzag.cat").read_text())
    diagram = compile_diagram(ast)
    ok, report = map_equals(diagram, identity_map(diagram.domain))
    assert ok, report


def test_compile_worked_bubble():
    ast = parse_diagram((DIAGRAM_DIR / "bubble.cat").read_text())
    diagram = compile_diagram(ast)
    want = bubble_value(GrassContext(1, 0), "ccw", 0)
    path = diagram.domain
    ok, report = map_equals(diagram, junction_mult(path, path.num_factors, want))
    assert ok, report


def test_compile_worked_crossing_square():
    ast = parse_diagram((DIAGRAM_DIR / "crossing_square.cat").read_text())
    diagram = compile_diagram(ast)
    ok, report = map_equals(diagram, zero_map(diagram.domain,
                                              diagram.codomain, -4))
    assert ok, report


def test_compile_dotted_bubble_matches_formula():
    # a cw bubble at weight -1 with d interior dots is multiplication by
    # the closed bubble value at alpha = d - (n - 1)
    for dots in range(0, 4):
        lines = ["N = 1", "weight = -1", "domain = 1", "layer: cup_ef"]
        lines += ["layer: id_e dot_f"] * dots
        lines.append("layer: cap_ef")
        diagram = compile_diagram(parse_diagram("\n".join(lines) + "\n"))
        alpha = dots - (-1 - 1)
        want = bubble_value(GrassContext(1, 0), "cw", alpha)
        path = diagram.domain
        ok, report = map_equals(diagram, junction_mult(path, path.num_factors, want))
        assert ok, (dots, report)


def test_compile_builds_one_chain(monkeypatch):
    dotted = parse_diagram((DIAGRAM_DIR / "zigzag.cat").read_text()
                           + "layer: dot_e\nlayer: dot_e\n")
    plain = parse_diagram("N = 2\nweight = 0\ndomain = E\nlayer: id_e\n")
    built = record_new_maps(monkeypatch)
    diagram = compile_diagram(dotted)
    assert len(built) == 4 + 1 and built[-1] is diagram
    assert diagram.name == "dot@1.dot@1.cap_ef@2.cup_fe@0"
    del built[:]
    identity = compile_diagram(plain)
    assert built == [identity] and identity.name == "id"


def _word_of(path):
    """The letters of a path's word in display order: an up-step is E."""
    return tuple("E" if path.is_up(i) else "F" for i in range(path.num_factors, 0, -1))


@pytest.mark.filterwarnings("ignore::catsl2.diagramlang.ZeroDiagramWarning")
def test_compile_layer_associativity():
    # the map of all layers is the head's map followed by the last layer
    # compiled on its own, on the head's codomain word
    rng = random.Random(46)
    count = 0
    while count < 25:
        ast = _random_ast(rng)
        if len(ast.layers) < 2:
            continue
        count += 1
        full = compile_diagram(ast)
        head = compile_diagram(DiagramAST(ast.N, ast.domain, ast.layers[:-1]))
        last = compile_diagram(DiagramAST(
            ast.N, SignedWord(_word_of(head.codomain), ast.domain.weight),
            ast.layers[-1:]))
        ok, report = map_equals(full, compose_chain(head, last))
        assert ok, report


@pytest.mark.filterwarnings("ignore::catsl2.diagramlang.ZeroDiagramWarning")
def test_compiled_degree_matches_table_sum():
    rng = random.Random(99)
    for _ in range(40):
        ast = _random_ast(rng)
        diagram = compile_diagram(ast)
        assert diagram.degree == table_degree_sum(ast)
        ok, report = audit_degree(diagram)
        assert ok, report


@pytest.mark.filterwarnings("ignore::catsl2.diagramlang.ZeroDiagramWarning")
def test_compile_at_the_type_check_places_matches_the_factor_walk():
    # the compiler builds each token at the place the type check gave it;
    # the walk that counted produced strands to find each factor gives the
    # same map, generator by generator, on criterion 9's 100 diagrams
    rng = random.Random(424242)
    for _ in range(100):
        ast = _random_ast(rng)
        diagram, walked = compile_diagram(ast), compile_by_layer_walk(ast)
        assert (diagram.domain, diagram.codomain, diagram.degree, diagram.name) == \
            (walked.domain, walked.codomain, walked.degree, walked.name)
        ok, report = map_equals(diagram, walked)
        assert ok, report


def test_zero_domain_warns():
    text = "N = 1\nweight = -1\ndomain = F\nlayer: dot_f\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        diagram = compile_diagram(parse_diagram(text))
    assert any(issubclass(w.category, ZeroDiagramWarning) for w in caught)
    assert diagram.domain.is_zero


# -- elements ------------------------------------------------------------------------------


def test_parse_element_basis():
    path = FlagPath(3, (1, 2, 1))
    element = parse_element("1 | 1", path)
    assert by_vector(element) == {(0, 0): Polynomial.one()}


def test_parse_element_normalizes():
    path = FlagPath(1, (0, 1, 0))
    element = parse_element("xi | 1", path)
    assert by_vector(element) == {(0, 0): ygen(1, -1)}


def test_parse_element_sums_and_rationals():
    from fractions import Fraction
    from catsl2.bimodules import RawTensor, normalize
    path = FlagPath(3, (1, 2))
    element = parse_element("1/2 * xi^2 - x[1] * xi", path)
    ring = path.step_ring(1)
    direct = normalize(RawTensor(path, (ring.xi(2) * Fraction(1, 2)
                                        - GrassContext(3, 1).gen("x", 1) * ring.xi(),)))
    assert element == direct


def test_parse_element_identity_path():
    path = FlagPath(4, (2,))
    element = parse_element("x[1]^2 + 3 * y[2]", path)
    ctx = GrassContext(4, 2)
    assert element == BimElement.from_ring_poly(
        path, ctx.gen("x", 1) ** 2 + 3 * ctx.gen("y", 2))


def test_parse_element_errors():
    with pytest.raises(DiagramError) as err:
        parse_element("x[3]", FlagPath(4, (2,)))
    assert "unknown generator x[3]" in str(err.value)
    with pytest.raises(DiagramError):
        parse_element("x[2]", FlagPath(3, (1, 2)))     # k=1 factor has only x[1]
    with pytest.raises(DiagramError):
        parse_element("1 | 1", FlagPath(3, (1, 2)))    # factor-count mismatch
    with pytest.raises(DiagramError):
        parse_element("1 +", FlagPath(3, (1,)))
    with pytest.raises(DiagramError):
        parse_element("xi", FlagPath(3, (1,)))         # no xi on identity paths
    # the one resolver, on factors and on identity paths: each error spans
    # exactly its token
    for text, path, message, cols in [
            ("xi * y[2]", FlagPath(3, (1, 2)),
             "unknown generator y[2] for factor 1 (y-range 1..1)", (6, 9)),
            ("x[1] * y[3]^2", FlagPath(3, (1,)),
             "unknown generator y[3] for the identity factor (k=1) (y-range 1..2)",
             (8, 13)),
            ("1 | 2 * x[3]", FlagPath(3, (1, 2, 3)),
             "unknown generator x[3] for factor 2 (x-range 1..2)", (9, 12)),
            ("y[1] *  xi ", FlagPath(3, (1,)),
             "xi is not a generator of the identity bimodule", (9, 10))]:
        with pytest.raises(DiagramError) as err:
            parse_element(text, path)
        assert str(err.value).endswith(message)
        assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


@pytest.mark.parametrize("text, cols", [
    ("xi | xi + xi", (11, 12)),
    ("xi | 1 - 2*xi | xi + xi", (22, 23)),
], ids=["repeated-term", "term-inside-earlier-term"])
def test_parse_element_term_span_is_its_own_column(text, cols):
    # the bad last term also occurs earlier in the text; its span must be
    # its own position, not the first place its text appears
    with pytest.raises(DiagramError) as err:
        parse_element(text, FlagPath(2, (0, 1, 2)))
    assert "tensor term has 1 factor expressions" in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


def test_header_digit_limit():
    for header in ("N = %s\nweight = 0\n", "N = 2\nweight = -%s\n"):
        text = header % ("9" * 1001) + "domain = E\n"
        with pytest.raises(DiagramError) as err:
            parse_diagram(text)
        assert str(err.value).endswith("has 1001 digits, above the limit 1000")
    # 1000 digits convert; the rank limit then decides
    with pytest.raises(DiagramError) as err:
        parse_diagram("N = %s\nweight = 1\ndomain = 1\n" % ("9" * 1000))
    assert str(err.value).startswith("line 1: rank N must lie in 1..%d, got '999"
                                     % MAX_DIAGRAM_RANK)


#: The bubble diagram, a cup, a dot on each strand and a cap, at rank %s.
BUBBLE = ("N = %s\nweight = 0\ndomain = 1\n"
          "layer: cup_fe\nlayer: dot_f dot_e\nlayer: cap_fe\n")


@pytest.mark.parametrize("text", [
    "N = -1\nweight = -1\ndomain = E\nlayer: dot_e\n",
    "N = 0\nweight = 0\ndomain = 1\n",
    BUBBLE % (MAX_DIAGRAM_RANK + 1),
    BUBBLE % "99999999999999999999",
], ids=["negative", "zero", "past-the-limit", "huge"])
def test_rank_header_out_of_range_exits_2_at_its_line(tmp_path, capsys, text):
    # refused at the N line, before any ring or generator is built
    diagram = tmp_path / "bad.cat"
    diagram.write_text(text)
    start = time.perf_counter()
    assert main(["eval", "--diagram", str(diagram), "--element", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(
        "catsl2: error: line 1: rank N must lie in 1..%d, got " % MAX_DIAGRAM_RANK)


@pytest.mark.parametrize("N, weight, letters, layers", [
    (-1, -1, ("E",), [("dot_e",)]),
    (MAX_DIAGRAM_RANK + 1, 1, (), []),
    (10 ** 20, 0, ("F", "E"), [("cap_fe",)]),
], ids=["negative", "past-the-limit", "huge"])
def test_rank_of_an_ast_built_in_code_is_checked(N, weight, letters, layers, monkeypatch):
    # the type check, which the parser and a DiagramAST built in code both
    # run, refuses the rank before compile_word builds any ring
    from catsl2 import diagramlang

    def no_ring(*args):
        raise AssertionError("compile_word ran before the rank check")

    monkeypatch.setattr(diagramlang, "compile_word", no_ring)
    with pytest.raises(DiagramError) as err:
        DiagramAST(N, SignedWord(letters, weight), layers)
    assert str(err.value) == "rank N must lie in 1..%d, got '%d'" % (MAX_DIAGRAM_RANK, N)
    assert err.value.line is None


@pytest.mark.parametrize("N, weight, message", [
    (10 ** 5000, 0, "rank N must lie in 1..%d, got '<16610-bit integer>'" % MAX_DIAGRAM_RANK),
    (-10 ** 4299, 0, "rank N must lie in 1..%d, got '-1%s...'" % (MAX_DIAGRAM_RANK, "0" * 38)),
    (2, -10 ** 4300 - 1, "weight -<14285-bit integer> is incompatible with rank 2 (parity)"),
    (2, 10 ** 4300 - 1, "weight %s is incompatible with rank 2 (parity)" % ("9" * 4300)),
], ids=["huge-rank", "4300-digit-rank", "4301-digit-weight", "4300-digit-weight"])
def test_rank_and_parity_messages_bound_a_huge_integer(N, weight, message):
    # an AST built in code can carry integers of more than 4300 digits,
    # which CPython will not convert to decimal: the type check and
    # compile_word echo them by sign and bit length, and shorter ones as
    # before
    with pytest.raises(DiagramError) as err:
        DiagramAST(N, SignedWord(("E",) if weight % 2 else (), weight), [])
    assert str(err.value) == message


@pytest.mark.filterwarnings("ignore::catsl2.diagramlang.ZeroDiagramWarning")
def test_path_map_and_ast_texts_bound_a_huge_integer():
    # an AST built in code at a weight of more than 4300 digits compiles
    # to a map on huge rings: the AST's repr, the map's repr and the
    # path's render echo such integers by sign and bit length, and
    # ordinary integers byte for byte as before
    huge = 10 ** 5000
    ast = DiagramAST(2, SignedWord(("E",), huge), [])
    assert repr(ast) == "DiagramAST(N=2, weight=<16610-bit integer>, domain=E, 0 layers)"
    ring = "<16609-bit integer>"
    path = "(%s,%s){+%s}" % (ring, ring, ring)
    assert repr(compile_diagram(ast)) == "BimMap(id: %s -> %s, deg 0)" % (path, path)
    cup = compile_diagram(DiagramAST(2, SignedWord((), huge), [("cup_fe",)]))
    assert repr(cup).endswith("{-1}, deg <16610-bit integer>)")
    assert FlagPath(2, (huge, huge + 1)).render() == \
        "(<16610-bit integer>,<16610-bit integer>)"
    assert FlagPath(2, (0, 1), shift=-huge).render() == "(0,1){-<16610-bit integer>}"
    assert repr(DiagramAST(3, SignedWord(("E",), -1), [])) == \
        "DiagramAST(N=3, weight=-1, domain=E, 0 layers)"
    assert repr(compile_diagram(DiagramAST(3, SignedWord(("E",), -1),
                                           [("cup_fe", "id_e")]))) == \
        "BimMap(cup_fe@1: (1,2){-1} -> (1,2,3,2){-3}, deg 2)"
    assert [FlagPath(3, (2, 1), shift=s).render() for s in (-2, 0, 2)] == \
        ["(2,1){-2}", "(2,1)", "(2,1){+2}"]


def test_bubble_at_the_rank_limit_evaluates(tmp_path, capsys):
    diagram = tmp_path / "bubble.cat"
    diagram.write_text(BUBBLE % MAX_DIAGRAM_RANK)
    assert main(["eval", "--diagram", str(diagram), "--element", "1"]) == 0
    assert "image:    -x[1]@0*y[1]@0^2 + " in capsys.readouterr().out


def test_diagram_and_rank_report_parity_with_the_same_text(tmp_path, capsys):
    # one parity rule, ``compile_word``'s; the diagram adds the weight line
    assert main(["rank", "--N", "2", "--word", "E", "--weight", "1"]) == 2
    rank_err = capsys.readouterr().err
    diagram = tmp_path / "parity.cat"
    diagram.write_text("N = 2\nweight = 1\ndomain = E\n")
    assert main(["eval", "--diagram", str(diagram), "--element", "1"]) == 2
    eval_err = capsys.readouterr().err
    assert eval_err == rank_err.replace("error: ", "error: line 2: ", 1)


NINES = "9" * 5000


@pytest.mark.parametrize("text, cols", [
    ("xi^" + NINES, (5, 5007)),                 # an exponent
    ("x[" + NINES + "]", (5, 5007)),            # an index
    ("2 * " + NINES + "/7 * xi", (9, 5010)),    # a rational
], ids=["exponent", "index", "rational"])
def test_parse_element_rejects_over_long_digit_runs(text, cols):
    # CPython refuses to convert integers of more than 4300 digits; the
    # parser must reject the run itself, with the token's span
    path = FlagPath(2, (0, 1))
    text = "1 + " + text
    with pytest.raises(DiagramError) as err:
        parse_element(text, path)
    assert "integer literal of 5000 digits exceeds the limit 1000" in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


def test_parse_element_bounds_rational_digits_per_term():
    path = FlagPath(2, (0, 1))
    longest = "9" * 1000
    assert parse_element(longest + " * xi", path) == \
        parse_element("xi", path).scale(int(longest))
    # 9^1000 has 955 digits; the limit counts 1 digit times the exponent
    assert not parse_element("9^1000 * xi", path).is_zero()
    with pytest.raises(DiagramError) as err:
        parse_element("9^1000 * 3/4 * xi", path)     # 1000 + 2 digits
    assert "have 1002 digits, above the limit 1000" in str(err.value)
    assert (err.value.col_start, err.value.col_end) == (10, 12)
    # the count runs over every factor of the term, and restarts per term
    two = FlagPath(2, (0, 1, 0))
    assert not parse_element("9^600 | 1 + 9^600 | 1", two).is_zero()
    with pytest.raises(DiagramError):
        parse_element("9^600 | 9^600", two)


def test_parse_element_leading_sign():
    path = FlagPath(2, (0, 1))
    xi = parse_element("xi", path)
    assert parse_element("-xi", path) == -xi
    assert parse_element("- xi + 1", path) == parse_element("1", path) - xi
    assert parse_element("+xi", path) == xi
    for text in ("-", "xi +", "- - xi"):
        with pytest.raises(DiagramError) as err:
            parse_element(text, path)
        assert "dangling sign in element expression" in str(err.value)


@pytest.mark.parametrize("text, path, cols", [
    ("-", FlagPath(2, (0, 1)), (1, 1)),
    ("xi +", FlagPath(2, (0, 1)), (4, 4)),
    ("- - xi", FlagPath(2, (0, 1)), (1, 1)),
    ("xi|1 + -xi|1", FlagPath(3, (1, 2, 1)), (6, 6)),
])
def test_dangling_sign_span_points_at_the_sign(text, path, cols):
    with pytest.raises(DiagramError) as err:
        parse_element(text, path)
    assert "dangling sign in element expression" in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


@pytest.mark.parametrize("text, path, token, cols", [
    ("xi|-1", FlagPath(3, (1, 2, 1)), "-1", (4, 5)),
    ("xi | -1", FlagPath(3, (1, 2, 1)), "-1", (6, 7)),
    ("2 * -xi", FlagPath(2, (0, 1)), "-xi", (5, 7)),
    ("xi ^ -1", FlagPath(2, (0, 1)), "xi ^ -1", (1, 7)),
    ("1 / -2", FlagPath(2, (0, 1)), "1 / -2", (1, 6)),
])
def test_sign_after_an_operator_and_a_blank_joins_no_terms(text, path, token, cols):
    # a sign whose previous non-blank character is |, *, ^ or / is part of
    # the factor expression, blanks or not: the token is reported whole
    with pytest.raises(DiagramError) as err:
        parse_element(text, path)
    assert "cannot parse token %r" % token in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


LONG = 5000


@pytest.mark.parametrize("text", [
    "N = %s\nweight = 0\ndomain = 1\n" % ("x" * LONG),
    "N = 2\nweight = 0\ndomain = %s\n" % ("Q" * LONG),
    "N = 2\nweight = 0\ndomain = 1\n%s\n" % ("z" * LONG),
    "N = 2\nweight = 0\ndomain = 1\nlayer: %s\n" % ("k" * LONG),
], ids=["N-header", "domain-header", "line", "layer-token"])
def test_diagram_errors_echo_a_bounded_excerpt(text):
    with pytest.raises(DiagramError) as err:
        parse_diagram(text)
    assert len(str(err.value)) < 200
    assert "..." in str(err.value)


@pytest.mark.parametrize("text", ["q" * LONG, "1/" + "0" * 999],
                         ids=["token", "zero-denominator"])
def test_element_errors_echo_a_bounded_excerpt(text):
    with pytest.raises(DiagramError) as err:
        parse_element(text, FlagPath(2, (0, 1)))
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("text, cols", [("", (1, 1)), ("   ", (1, 3))])
def test_empty_element_has_its_own_message(text, cols):
    with pytest.raises(DiagramError) as err:
        parse_element(text, FlagPath(2, (0, 1)))
    assert "empty element expression" in str(err.value)
    assert "dangling sign" not in str(err.value)
    assert (err.value.line, err.value.col_start, err.value.col_end) == (1, *cols)


# -- fuzzing the element grammar ---------------------------------------------------

#: Stray pieces: the tokens of the element grammar (docs/grammars.md),
#: pieces of them, blanks, signs and operators.
STRAY = ["xi", "x[", "y[", "]", "x[1]", "y[1]", "x[2]", "y[2]", "0", "1", "2", "3",
         "/", "^", "*", "|", "+", "-", " "]
BLANKS = st.sampled_from(["", "", " ", "  "])


def _joined(parts, sep):
    """One or more parts joined by sep, with blanks around each sep."""
    return st.tuples(parts, st.lists(st.tuples(BLANKS, parts, BLANKS), max_size=2)).map(
        lambda t: t[0] + "".join(a + sep + p + b for a, p, b in t[1]))


_ATOMS = st.tuples(st.sampled_from(["xi", "x[1]", "y[1]", "x[2]", "y[2]", "1", "2",
                                    "3/4", "0", "1/0"]),
                   st.sampled_from(["", "^0", "^2", "^3"])).map("".join)
_TERMS = _joined(_joined(_ATOMS, "*"), "|")
#: Texts the grammar derives, with a leading sign or none.
_ELEMENTS = st.tuples(st.sampled_from(["", "-", "+ "]), _TERMS,
                      st.lists(st.tuples(st.sampled_from([" + ", "-", " - "]), _TERMS),
                               max_size=2)).map(
    lambda t: t[0] + t[1] + "".join(sign + term for sign, term in t[2]))
ELEMENT_TEXTS = st.one_of(
    _ELEMENTS,
    st.tuples(_ELEMENTS, st.sampled_from(STRAY), st.integers(0, 40)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),          # a stray piece inside
    st.tuples(_ELEMENTS, st.integers(0, 40)).map(lambda t: t[0][:t[1]]),   # cut short
    st.lists(st.sampled_from(STRAY), max_size=12).map("".join),           # noise
)
#: Every path with N <= 2: the identity paths and those of 1 or 2 steps.
SMALL_PATHS = ([FlagPath(N, (k,)) for N in (1, 2) for k in range(N + 1)]
               + [path for N in (1, 2) for path in all_paths(N, 2)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ELEMENT_TEXTS)
def test_parse_element_fuzz_parses_or_points_inside_the_text(text):
    # every text either parses or raises DiagramError, never another
    # exception, and every error span lies inside the text
    for path in SMALL_PATHS:
        try:
            parse_element(text, path)
        except DiagramError as err:
            assert err.line == 1
            assert 1 <= err.col_start <= err.col_end <= max(len(text), 1), \
                (text, path.render(), str(err))


# -- fuzzing the diagram grammar ---------------------------------------------------

#: Diagrams the grammar derives and the type check accepts, at N <= 3.
CAT_SEEDS = [
    "N = 1\nweight = -1\ndomain = 1\nlayer: cup_fe\nlayer: cap_fe\n",
    "N = 2\nweight = -2\ndomain = E E\nlayer: cross_ee\nlayer: cross_ee\n",
    "N = 2\nweight = 0\ndomain = E\nlayer: dot_e\n",
    "N = 1\nweight = -1\ndomain = E\nlayer: id_e cup_fe\nlayer: cap_ef id_e\n",
    "N = 3\nweight = 1\ndomain = F E\nlayer: dot_f id_e\nlayer: cap_fe\nlayer: cup_ef\n",
    "N = 2\nweight = 2\ndomain = F F\nlayer: cross_ff\nlayer: dot_f dot_f\n",
    "# a comment\nweight = 0   # trailing\n\nN = 2\ndomain = 1\n"
    "layer: cup_ef\nlayer:  dot_e\tdot_f \nlayer: cap_ef\n",
    "N = 3\nweight = -3\ndomain = 1\n",
]
#: Stray lines and pieces: the grammar's tokens (docs/grammars.md) alone,
#: in the wrong place or misspelt, headers with bad values, blanks and
#: unknown words.
CAT_STRAY = (["", " ", "\t", "# note", "layer:", "layer", ":", "=", "N", "weight",
              "domain", "N = 2", "N = 0", "N = -1", "N = %d" % (MAX_DIAGRAM_RANK + 1),
              "N = %d" % 10 ** 20, "weight = 1", "weight = x",
              "N = 1.5", "N =", "N = " + "9" * 1001, "domain = E F", "domain = EF",
              "domain = 1 E", "domain =", "domain = X", "E", "F", "1", "-", "foo",
              "layer: bogus", "layer: cupfe", "layer:: id_e", "layer: " + "k" * 60]
             + ["layer: " + token for token in TOKEN_SHAPES] + list(TOKEN_SHAPES))


def _edit(text, edits, newline):
    """``text`` with each ``(kind, at, piece)`` of ``edits`` applied to its
    lines (insert a piece as a line, repeat a line elsewhere, drop a line,
    append a piece to a line, or cut the text at a character), ending in
    a newline or not."""
    lines = text.splitlines()
    for kind, at, piece in edits:
        i = at % (len(lines) + 1)
        if kind == "insert":
            lines.insert(i, piece)
        elif kind == "repeat" and lines:
            lines.insert(i, lines[(at * 7) % len(lines)])
        elif kind == "drop" and lines:
            del lines[i % len(lines)]
        elif kind == "append" and lines:
            lines[i % len(lines)] += piece
        elif kind == "cut":
            lines = "\n".join(lines)[:at].splitlines()
    return "\n".join(lines) + ("\n" if newline else "")


_CAT_EDITS = st.lists(st.tuples(
    st.sampled_from(["insert", "repeat", "drop", "append", "cut"]),
    st.integers(0, 120),
    st.sampled_from(CAT_STRAY + [" ", "  ", "\t", " # c", " E", " id_e", " 2"])),
    max_size=4)
#: Ranks out of range: each replaces a seed's N.
BAD_RANKS = ["0", "-1", str(MAX_DIAGRAM_RANK + 1), str(10 ** 20)]
CAT_TEXTS = st.one_of(
    st.sampled_from(CAT_SEEDS),
    st.tuples(st.sampled_from(CAT_SEEDS), _CAT_EDITS, st.booleans()).map(
        lambda t: _edit(*t)),
    st.tuples(st.sampled_from(CAT_SEEDS), st.sampled_from(BAD_RANKS)).map(
        lambda t: re.sub(r"N = \d+", "N = " + t[1], t[0])),
    st.lists(st.sampled_from(CAT_STRAY), max_size=8).map("\n".join),      # noise
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CAT_TEXTS)
def test_diagram_fuzz_compiles_or_points_inside_the_text(text):
    # every text compiles or raises DiagramError, never another exception;
    # the error names a line of the text (an empty text has none) and
    # columns inside that line, and its message is bounded.  Only a rank
    # in 1..MAX_DIAGRAM_RANK compiles.
    lines = text.splitlines()
    try:
        ast = parse_diagram(text)
        assert 1 <= ast.N <= MAX_DIAGRAM_RANK, text
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroDiagramWarning)
            compile_diagram(ast)
    except DiagramError as err:
        assert len(str(err)) < 200, (text, str(err))
        if err.line is None:
            assert text == "", str(err)
            return
        assert 1 <= err.line <= len(lines), (text, str(err))
        if err.col_start is not None:
            assert 1 <= err.col_start <= err.col_end <= len(lines[err.line - 1]), \
                (text, str(err))
