"""Country-level holiday classification and cultural comparison.

A country's holiday response is the z value, at the anchor's own week, of
its weekly interest series re-centered on each of four recurring anchors
(Christmas, Eid al-Fitr, both solstices), normalized to each year's maximum,
averaged across years and z-scored, as the ``center`` stage computes it.
``build_profiles`` takes one row of those z values per country. A country whose
Christmas (or Eid) z exceeds a threshold is classified as responding to that
holiday; the classification is then compared with the country's
self-reported religious identification, and with hemisphere grouping as the
seasonal alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .io import _Z_COLUMNS
from .timeseries import AnchorKind, WeeklySeries
from .stats import _finite, pearson

# Countries whose principal churches celebrate Christmas in January; with the
# orthodox-as-other option they are regrouped as Other before agreement is
# measured. Bulgaria stays: its main church uses the December date.
JANUARY_CHRISTMAS = frozenset(
    {"BA", "BY", "GE", "MD", "ME", "MK", "RS", "RU", "SI", "UA"}
)


@dataclass(frozen=True)
class HolidayResponse:
    """Anchor-week z-scores per centered calendar, each field named as
    its anchor's z table column."""

    z_christmas: float
    z_eid: float
    z_june: float
    z_dec: float

    def z_for(self, kind: AnchorKind) -> float:
        return getattr(self, _Z_COLUMNS[kind])


@dataclass(frozen=True)
class Classification:
    label: str                       # Christian | Muslim | Other
    basis: tuple[str, ...]           # which anchors exceeded the threshold
    tie_resolved: bool = False


@dataclass(frozen=True)
class CountryProfile:
    """A country's identification, measured response, and classification."""

    code: str
    name: str
    identification: str
    hemisphere: str
    response: HolidayResponse
    classification: Classification


def classify(response: HolidayResponse, threshold: float = 1.0) -> Classification:
    """Label a country by which holiday its interest peaks on.

    z_christmas > threshold alone -> Christian; z_eid alone -> Muslim; both ->
    the larger wins (an exact tie resolves to Christian and is flagged);
    neither -> Other.
    """
    christmas = response.z_christmas > threshold
    eid = response.z_eid > threshold
    basis = tuple(
        name for name, hit in (("christmas", christmas), ("eid-al-fitr", eid)) if hit
    )
    if christmas and eid:
        if response.z_christmas == response.z_eid:
            return Classification("Christian", basis, tie_resolved=True)
        label = "Christian" if response.z_christmas > response.z_eid else "Muslim"
        return Classification(label, basis)
    if christmas:
        return Classification("Christian", basis)
    if eid:
        return Classification("Muslim", basis)
    return Classification("Other", basis)


def build_profiles(
    zrows: list[dict],
    threshold: float = 1.0,
    orthodox_as_other: bool = False,
) -> list[CountryProfile]:
    """Profiles from per-country z rows (code/name/identification/hemisphere/z_*)."""
    profiles = []
    for row in zrows:
        identification = row["identification"]
        if orthodox_as_other and row["code"] in JANUARY_CHRISTMAS:
            identification = "Other"
        response = HolidayResponse(**{column: row[column] for column in _Z_COLUMNS.values()})
        profiles.append(
            CountryProfile(
                code=row["code"],
                name=row["name"],
                identification=identification,
                hemisphere=row["hemisphere"],
                response=response,
                classification=classify(response, threshold),
            )
        )
    return profiles


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


# the fields of a cohort_agreement row, in agreement.csv's column order
_AGREEMENT_FIELDS = ["group_kind", "group", "anchor", "n_group", "n_above", "pct_exact", "pct"]


def cohort_agreement(
    profiles: list[CountryProfile],
    threshold: float = 1.0,
) -> list[dict]:
    """Per-group percentage of countries with z above threshold at each
    anchor, one ``_AGREEMENT_FIELDS`` row per (group, anchor).

    Groups countries by identification and by hemisphere; empty groups are
    simply absent from the output. Percentages are reported exact and rounded
    to whole percent.
    """
    rows = []
    groupings = (
        ("identification", lambda p: p.identification),
        ("hemisphere", lambda p: p.hemisphere),
    )
    for group_kind, key in groupings:
        members: dict[str, list[CountryProfile]] = {}
        for profile in profiles:
            members.setdefault(key(profile), []).append(profile)
        for group in sorted(members):
            cohort = members[group]
            for kind in _Z_COLUMNS:
                hits = sum(1 for p in cohort if p.response.z_for(kind) > threshold)
                exact = 100.0 * hits / len(cohort)
                rows.append(dict(zip(_AGREEMENT_FIELDS, (
                    group_kind, group, kind.value, len(cohort), hits, exact, _round_half_up(exact)))))
    return rows


def compare_search_terms(a: WeeklySeries, b: WeeklySeries, min_overlap: int = 8) -> tuple[float, float]:
    """(volume ratio, correlation) of two weekly series over their overlap.

    Overlap is by calendar week. The ratio is sum(a)/sum(b); correlation is
    Pearson. Series whose grids are offset by a non-multiple of 7 days never
    share weeks and are rejected.
    """
    shift_days = (b.start_date - a.start_date).days
    if shift_days % 7 != 0:
        raise DataError("series grids are not aligned to the same weekday")
    shift = shift_days // 7
    # overlap in a's indexing
    lo = max(0, shift)
    hi = min(len(a), shift + len(b))
    if hi - lo < min_overlap:
        raise DataError(f"series overlap {max(0, hi - lo)} weeks, need {min_overlap}")
    xs = a.values[lo:hi]
    ys = b.values[lo - shift : hi - shift]
    total = _finite(float(ys.sum()), "the reference series' sum")
    if total <= 0.0:
        raise DataError("reference series sums to zero over the overlap")
    return _finite(float(xs.sum()) / total, "the volume ratio"), pearson(xs, ys)
