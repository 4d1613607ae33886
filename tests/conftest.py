import datetime as dt

import numpy as np
import pytest

from moodcycles.sentiment import GreetingStoplist, Lexicon
from moodcycles.timeseries import WeeklySeries


@pytest.fixture(scope="session")
def default_stoplist() -> GreetingStoplist:
    return GreetingStoplist.default()


@pytest.fixture()
def english_lexicon() -> Lexicon:
    return Lexicon(
        language="english",
        entries={
            "laughter": (8.5, 6.7, 7.2),
            "leprosy": (2.1, 4.3, 3.0),
            "sunshine": (8.0, 5.3, 5.4),
            "gloom": (2.3, 3.8, 3.3),
            "table": (5.2, 2.9, 5.0),
            "christmas": (7.7, 6.1, 6.3),
        },
    )


@pytest.fixture()
def spanish_lexicon() -> Lexicon:
    return Lexicon(
        language="spanish",
        entries={
            "sol": (7.9, 5.0, 5.5),
            "pena": (2.4, 4.0, 3.1),
            "mesa": (5.1, 3.0, 5.0),
        },
    )


def weekly(start: str, values) -> WeeklySeries:
    return WeeklySeries(start_date=dt.date.fromisoformat(start), values=np.asarray(values, dtype=float))


@pytest.fixture()
def flat_series() -> WeeklySeries:
    values = np.full(560, 10.0)
    return WeeklySeries(start_date=dt.date(2004, 1, 4), values=values)
