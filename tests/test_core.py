import random

import pytest

from intfunc import (
    Axis,
    CapExhaustedError,
    GenerationMode,
    GeneratorConfig,
    IntegerFunction,
    IntegerPair,
    I_MINUS,
    I_PLUS,
    J_PLUS,
    ParseError,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    RegisterOverflowError,
    StepCount,
    WhilePositive,
    apply_step,
    choose_step,
    designation_violations,
    from_step_sequence,
    generate,
    implied_designation,
    parse_steps,
)
from intfunc.curves import harmonic_config, line_config

from conftest import SAMPLE_STEP_TEXT
from helpers import assert_lattice_path, random_steps


class TestChooseStep:
    def test_tie_goes_to_i(self):
        assert choose_step(RegisterBank(RX=0, RY=0)) is Axis.I

    def test_positive_difference_goes_to_j(self):
        assert choose_step(RegisterBank(RX=5, RY=3)) is Axis.J

    def test_negative_difference_goes_to_i(self):
        assert choose_step(RegisterBank(RX=-1, RY=0)) is Axis.I

    def test_difference_overflow_detected(self):
        bank = RegisterBank(RX=REGISTER_CAPACITY, RY=-REGISTER_CAPACITY)
        with pytest.raises(RegisterOverflowError):
            choose_step(bank)


class TestApplyStep:
    def test_rank_one_only(self):
        bank = RegisterBank(X=3)
        out = apply_step(bank, Axis.I)
        assert out == RegisterBank(RX=3, X=3)

    def test_cascade_updates_feed_downward(self):
        # A lone rank-3 value must reach the regulator within a single step.
        bank = RegisterBank(XXX=1)
        out = apply_step(bank, Axis.I)
        assert (out.XX, out.X, out.RX) == (1, 1, 1)

    def test_quarter_wave_j_branch(self):
        # State after the first i step of the seed-100 quarter-wave run.
        bank = RegisterBank(RX=99, X=99, Y=100, XX=-1, XXY=-1)
        out = apply_step(bank, Axis.J)
        assert out.XX == -2
        assert out.RY == 100
        assert (out.X, out.Y, out.RX, out.XXY) == (99, 100, 99, -1)

    def test_y_rate_untouched_on_i_step(self):
        bank = RegisterBank(X=2, Y=7)
        out = apply_step(bank, Axis.I)
        assert out.Y == 7
        assert out.RY == 0

    def test_pure_and_deterministic(self):
        bank = RegisterBank(X=3, XX=-1, Y=4)
        first = apply_step(bank, Axis.I)
        second = apply_step(bank, Axis.I)
        assert first == second
        assert bank == RegisterBank(X=3, XX=-1, Y=4)

    def test_addition_overflow_detected(self):
        bank = RegisterBank(RX=REGISTER_CAPACITY, X=1)
        with pytest.raises(RegisterOverflowError):
            apply_step(bank, Axis.I)


class TestRegisterBank:
    def test_rejects_unknown_names(self):
        with pytest.raises(PreconditionError):
            RegisterBank.from_mapping({"XZ": 1})

    def test_rejects_non_integers(self):
        with pytest.raises(PreconditionError):
            RegisterBank(X=1.5)

    def test_rejects_values_beyond_capacity(self):
        with pytest.raises(RegisterOverflowError):
            RegisterBank(X=REGISTER_CAPACITY + 1)

    def test_value_lookup(self):
        bank = RegisterBank(XXY=-1)
        assert bank.value("XXY") == -1
        with pytest.raises(PreconditionError):
            bank.value("Q")


class TestParseSteps:
    def test_plain_letters_default_to_plus(self):
        assert parse_steps("i j") == (I_PLUS, J_PLUS)

    def test_ascii_and_unicode_signs(self):
        assert parse_steps("i- j+ i⁻ j⁺ i−") == (
            I_MINUS, J_PLUS, I_MINUS, J_PLUS, I_MINUS)

    def test_commas_allowed(self):
        assert parse_steps("i,j,i") == (I_PLUS, J_PLUS, I_PLUS)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_steps("i k")
        with pytest.raises(ParseError):
            parse_steps("ij")


class TestFromStepSequence:
    def test_sample_table(self):
        f = from_step_sequence((0, 0), SAMPLE_STEP_TEXT)
        assert len(f.elements) == 25
        assert f.end == IntegerPair(15, 9)
        assert_lattice_path(f)

    def test_empty_steps(self):
        f = from_step_sequence((0, 0), ())
        assert f.elements == (IntegerPair(0, 0),)
        assert f.length == 0

    def test_signed_steps(self):
        f = from_step_sequence((2, -1), "i⁻ j⁺")
        assert f.elements == (IntegerPair(2, -1), IntegerPair(1, -1), IntegerPair(1, 0))

    def test_transposed_swaps_roles(self):
        f = from_step_sequence((1, 2), "i j j")
        t = f.transposed()
        assert t.start == IntegerPair(2, 1)
        assert t.elements[-1] == IntegerPair(f.end.j, f.end.i)


class TestStopRules:
    def test_step_count_must_be_positive(self):
        with pytest.raises(PreconditionError):
            StepCount(0)

    def test_while_positive_validates_register(self):
        with pytest.raises(PreconditionError):
            WhilePositive("Q", 10)
        with pytest.raises(PreconditionError):
            WhilePositive("X", 0)


@pytest.mark.parametrize("build, message", [
    (lambda: RegisterBank(X=True), "register X must be an integer, got bool"),
    (lambda: StepCount(True), "step count must be a positive integer"),
    (lambda: WhilePositive("X", True), "cap must be a positive integer"),
], ids=["register", "count", "cap"])
def test_bools_are_not_integers(build, message):
    # A config file would read back X=True or CAP=True as an error.
    with pytest.raises(PreconditionError) as info:
        build()
    assert str(info.value) == message


class TestGenerate:
    def test_line_3_5(self):
        f, trace = generate(line_config(3, 5, 8))
        assert "".join(s.token for s in f.steps) == "i+j+i+j+i+i+j+i+"
        assert f.end == IntegerPair(5, 3)
        assert len(trace) == 8

    def test_line_1_1_alternates(self):
        f, _ = generate(line_config(1, 1, 2))
        assert [s.token for s in f.steps] == ["i+", "j+"]
        assert f.end == IntegerPair(1, 1)

    def test_quarter_wave_seed_100(self):
        # The printed first-row pair for this run (15, 8) disagrees with its
        # own bounds 1.4 and 1.777778, which require j = 9; the algorithm
        # itself lands on (15, 9).
        f, trace = generate(harmonic_config(100, cap=10**6))
        assert f.end == IntegerPair(15, 9)
        assert len(trace) == 24
        assert trace[-1].bank.X == -2

    def test_trace_reflects_state_after_each_step(self):
        _, trace = generate(line_config(3, 5, 8))
        for record in trace:
            assert record.bank.RX == record.i * 3
            assert record.bank.RY == record.j * 5
        assert [r.k for r in trace] == list(range(1, 9))

    def test_cap_exhaustion_is_distinct(self):
        config = GeneratorConfig(start=(0, 0),
                                 bank=RegisterBank(X=100, Y=100, XX=-1, XXY=-1),
                                 stop=WhilePositive("X", 5))
        with pytest.raises(CapExhaustedError):
            generate(config)

    def test_rejects_harmonized_mode(self):
        config = GeneratorConfig(start=(0, 0), bank=RegisterBank(X=1, Y=1),
                                 stop=StepCount(4),
                                 mode=GenerationMode.SIGN_HARMONIZED)
        with pytest.raises(PreconditionError):
            generate(config)

    def test_predicate_stop_includes_terminating_step(self):
        # X = 1, XX = -1: the first i step drives X to 0 and the run ends.
        config = GeneratorConfig(start=(0, 0), bank=RegisterBank(X=1, Y=1, XX=-1),
                                 stop=WhilePositive("X", 100))
        f, trace = generate(config)
        assert f.length == 1
        assert trace[-1].bank.X == 0


class TestDesignation:
    def test_rank3_always_constant(self):
        bank = RegisterBank(XXY=-1, Y=5)
        assert implied_designation(bank) == {"XXY", "Y"}

    def test_fed_registers_excluded(self):
        # X varies whenever XX is non-zero, XX varies whenever XXY is.
        bank = RegisterBank(X=100, Y=100, XX=-1, XXY=-1)
        assert implied_designation(bank) == {"XXY", "Y"}

    def test_free_fall_designation(self):
        bank = RegisterBank(X=7, Y=100, XX=2)
        assert implied_designation(bank) == {"XX", "Y"}

    def test_egg_designation(self):
        bank = RegisterBank(X=500000, Y=10, XX=-10000, YY=10000, YYY=-125)
        assert implied_designation(bank) == {"XX", "YYY"}

    def test_violations_detected_on_fabricated_trace(self):
        f, trace = generate(line_config(3, 5, 8))
        # Claiming RX-fed X as constant is fine ({X, Y} keeps it constant);
        # claiming a register with a changing value is flagged.
        assert designation_violations({"X", "Y"}, RegisterBank(X=3, Y=5), trace) == []
        fake_initial = RegisterBank(X=99, Y=5)
        assert designation_violations({"X"}, fake_initial, trace) == ["X"]

    def test_non_work_register_rejected(self):
        _, trace = generate(line_config(1, 1, 2))
        with pytest.raises(PreconditionError):
            designation_violations({"RX"}, RegisterBank(), trace)


class TestGenerateInvariants:
    def test_line_grid_ends_at_swapped_pair(self):
        # Exhaustive over the whole parameter square: an {X, Y} run of a + b
        # steps with X = a, Y = b always ends at [b, a].
        for a in range(1, 101):
            for b in range(1, 101):
                f, _ = generate(line_config(a, b, a + b))
                assert f.end == IntegerPair(b, a), (a, b)

    def test_fuzzed_paths_are_valid(self):
        rng = random.Random(11)
        for _ in range(200):
            start = (rng.randint(-20, 20), rng.randint(-20, 20))
            f = IntegerFunction(start, random_steps(rng))
            assert_lattice_path(f)

    def test_fuzzed_line_regulators(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = rng.randint(1, 60), rng.randint(1, 60)
            steps = rng.randint(1, a + b)
            _, trace = generate(line_config(a, b, steps))
            for record in trace:
                assert record.bank.RX == record.i * a
                assert record.bank.RY == record.j * b

    def test_generation_is_deterministic(self):
        rng = random.Random(17)
        for _ in range(20):
            config = line_config(rng.randint(1, 9), rng.randint(1, 9), 30)
            first = generate(config)
            second = generate(config)
            assert first[0] == second[0]
            assert first[1] == second[1]
