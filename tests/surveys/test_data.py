"""Tests for the archived survey data — the counts ARE the paper's numbers."""

import pytest

from repro.surveys.data import BIG_DATA_SURVEY, EASYPAP_SURVEY, TABLE_I, SurveyQuestion


class TestSurveyQuestion:
    def test_count_choice_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurveyQuestion("q", ("a", "b"), (1,))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SurveyQuestion("q", ("a",), (-1,))

    def test_top_choice(self):
        q = SurveyQuestion("q", ("a", "b", "c"), (1, 5, 2))
        assert q.top_choice() == "b"

    def test_positive_fraction(self):
        q = SurveyQuestion("q", ("a", "b", "c"), (3, 1, 4))
        assert q.positive_fraction(2) == pytest.approx(0.5)

    def test_empty_counts(self):
        q = SurveyQuestion("q", ("a",), (0,))
        assert q.positive_fraction() == 0.0


class TestTableI:
    """Exact counts from the paper's Table I (n = 11)."""

    def test_n_participants(self):
        assert TABLE_I.n_participants == 11

    def test_six_questions(self):
        assert len(TABLE_I.questions) == 6

    def test_question_totals_match_published_table(self):
        # Five rows total 11; the "How useful is simulation" row totals 12
        # *in the published table itself* (6+3+3 with n = 11) — we archive
        # the paper's numbers verbatim, typo included.
        totals = [q.n_responses for q in TABLE_I.questions]
        assert totals == [11, 11, 11, 11, 12, 11]

    def test_difficulty_row(self):
        q = TABLE_I.question("How easy / difficult")
        assert q.counts == (1, 6, 4, 0, 0)
        assert q.top_choice() == "somewhat easy"

    def test_usefulness_row(self):
        assert TABLE_I.question("How useful is the assignment").counts == (5, 3, 3, 0, 0)

    def test_learning_row(self):
        assert TABLE_I.question("To what extent").counts == (5, 4, 2, 0, 0)

    def test_interest_row(self):
        q = TABLE_I.question("Are you interested")
        assert q.counts == (10, 1)

    def test_simulation_usefulness_row(self):
        assert TABLE_I.question("How useful is simulation").counts == (6, 3, 3, 0, 0)

    def test_overall_value_row(self):
        assert TABLE_I.question("How valuable").counts == (7, 3, 1, 0, 0)

    def test_nobody_found_it_difficult(self):
        q = TABLE_I.question("How easy / difficult")
        assert q.counts[3] == 0 and q.counts[4] == 0

    def test_unknown_question_raises(self):
        with pytest.raises(KeyError):
            TABLE_I.question("How many GPUs")


class TestBigDataSurvey:
    """Sec. III-B's n = 8 survey bullets."""

    def test_n_participants(self):
        assert BIG_DATA_SURVEY.n_participants == 8

    def test_prerequisites_sufficient(self):
        # "Six students thought ... sufficient ... two absolutely sufficient"
        q = BIG_DATA_SURVEY.question("Were the prerequisites")
        assert q.counts == (2, 6, 0, 0, 0)

    def test_difficulty(self):
        # "Seven ... reasonable and one ... difficult"
        q = BIG_DATA_SURVEY.question("How difficult")
        assert q.counts[1] == 1 and q.counts[2] == 7

    def test_interest_increased(self):
        assert BIG_DATA_SURVEY.question("Did the assignment increase").counts == (7, 1)

    def test_coolness(self):
        # "Seven ... mostly cool and one person very cool"
        q = BIG_DATA_SURVEY.question("How cool")
        assert q.counts == (1, 7, 0, 0, 0)

    def test_awareness_unchanged_for_most(self):
        q = BIG_DATA_SURVEY.question("Did the assignment change your awareness")
        assert q.counts == (1, 7)

    def test_all_questions_total_8(self):
        for q in BIG_DATA_SURVEY.questions:
            assert q.n_responses == 8, q.text


class TestEasypapSurvey:
    def test_positive_skew(self):
        # Fig. 5's message: overwhelmingly positive feedback
        for q in EASYPAP_SURVEY.questions:
            assert q.positive_fraction(2) > 0.75, q.text

    def test_statement_coverage(self):
        texts = " ".join(q.text.lower() for q in EASYPAP_SURVEY.questions)
        # the paper's quoted student comments map onto these statements
        assert "variants" in texts
        assert "monitoring" in texts
        assert "learning curve" in texts
        assert "productivity" in texts

    def test_consistent_totals(self):
        totals = {q.n_responses for q in EASYPAP_SURVEY.questions}
        assert totals == {EASYPAP_SURVEY.n_participants}


class TestSurveyContainer:
    def test_question_prefix_case_insensitive(self):
        assert isinstance(TABLE_I.question("how easy"), SurveyQuestion)

    def test_survey_is_frozen(self):
        with pytest.raises(Exception):
            TABLE_I.n_participants = 99
