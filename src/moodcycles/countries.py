"""Country-level holiday response and cultural classification.

For each country, weekly interest series are re-centered on four recurring
anchors (Christmas, Eid al-Fitr, both solstices). After yearly-max
normalization, across-year averaging, and z-scoring, the z value at the
anchor's own week measures how sharply interest peaks on the holiday. A
country whose Christmas (or Eid) z exceeds a threshold is classified as
responding to that holiday; the classification is then compared with the
country's self-reported religious identification, and with hemisphere
grouping as the seasonal alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError, NumericalError
from .timeseries import (
    AnchorCalendar,
    AnchorKind,
    WeeklySeries,
    average_years,
    build_centered_years,
    normalize_yearly_max,
    zscore,
)
from .stats import pearson

# Countries whose principal churches celebrate Christmas in January; with the
# orthodox-as-other option they are regrouped as Other before agreement is
# measured. Bulgaria stays: its main church uses the December date.
JANUARY_CHRISTMAS = frozenset(
    {"BA", "BY", "GE", "MD", "ME", "MK", "RS", "RU", "SI", "UA"}
)

RESPONSE_ANCHORS = (
    AnchorKind.CHRISTMAS,
    AnchorKind.EID_AL_FITR,
    AnchorKind.JUNE_SOLSTICE,
    AnchorKind.DECEMBER_SOLSTICE,
)

_MIN_YEARS = 4  # centered years a calendar needs for a holiday response


@dataclass(frozen=True)
class HolidayResponse:
    """Anchor-week z-scores per centered calendar."""

    z_christmas: float
    z_eid: float
    z_june: float
    z_dec: float

    def z_for(self, kind: AnchorKind) -> float:
        return {
            AnchorKind.CHRISTMAS: self.z_christmas,
            AnchorKind.EID_AL_FITR: self.z_eid,
            AnchorKind.JUNE_SOLSTICE: self.z_june,
            AnchorKind.DECEMBER_SOLSTICE: self.z_dec,
        }[kind]


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


def holiday_response(
    series: WeeklySeries,
    calendars: dict[AnchorKind, AnchorCalendar],
) -> HolidayResponse:
    """Anchor-week z for each of the four response calendars.

    Per calendar: center the series on the anchor, rescale each year to its
    maximum, average across years, z-score the averaged year, and read the
    z value at the anchor's week. Degenerate series (zero variance, no
    positive values) are reported per anchor.
    """
    z: dict[AnchorKind, float] = {}
    failures: list[str] = []
    for kind in RESPONSE_ANCHORS:
        cal = calendars.get(kind)
        if cal is None:
            failures.append(f"{kind.value}: no calendar provided")
            continue
        if cal.kind is not kind:
            raise DataError(f"calendar for {kind.value} has kind {cal.kind.value}")
        try:
            years = build_centered_years(series, cal)
            if len(years) < _MIN_YEARS:
                raise DataError(
                    f"only {len(years)} usable centered years (need {_MIN_YEARS})"
                )
            avg = average_years(normalize_yearly_max(years))
            z[kind] = float(zscore(avg.weeks)[cal.anchor_week_index - 1])
        except (DataError, NumericalError) as exc:
            failures.append(f"{kind.value}: {exc}")
    if failures:
        raise NumericalError("holiday response failed: " + "; ".join(failures))
    return HolidayResponse(
        z_christmas=z[AnchorKind.CHRISTMAS],
        z_eid=z[AnchorKind.EID_AL_FITR],
        z_june=z[AnchorKind.JUNE_SOLSTICE],
        z_dec=z[AnchorKind.DECEMBER_SOLSTICE],
    )


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
        response = HolidayResponse(
            z_christmas=row["z_christmas"],
            z_eid=row["z_eid"],
            z_june=row["z_june"],
            z_dec=row["z_dec"],
        )
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


def cohort_agreement(
    profiles: list[CountryProfile],
    threshold: float = 1.0,
) -> list[dict]:
    """Per-group percentage of countries with z above threshold at each anchor.

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
            for kind in RESPONSE_ANCHORS:
                hits = sum(1 for p in cohort if p.response.z_for(kind) > threshold)
                exact = 100.0 * hits / len(cohort)
                rows.append({
                    "group_kind": group_kind,
                    "group": group,
                    "anchor": kind.value,
                    "n_group": len(cohort),
                    "n_above": hits,
                    "pct_exact": exact,
                    "pct": _round_half_up(exact),
                })
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
    total = float(ys.sum())
    if total <= 0.0:
        raise DataError("reference series sums to zero over the overlap")
    return float(xs.sum()) / total, pearson(xs, ys)


_BUCKETS = 5


def export_choropleth(
    profiles: list[CountryProfile],
    all_codes: list[str] | None = None,
) -> list[tuple[str, str, str, str]]:
    """Rows (code, anchor, z, bucket) for a classification map.

    Christian-classified countries get red buckets scaled by z_christmas,
    Muslim-classified get green buckets scaled by z_eid, Other is white, and
    countries listed in ``all_codes`` but absent from ``profiles`` are
    dark-grey. Bucket intensity is linear in z up to the group maximum.
    """
    max_z = {"Christian": 0.0, "Muslim": 0.0}
    for p in profiles:
        if p.classification.label == "Christian":
            max_z["Christian"] = max(max_z["Christian"], p.response.z_christmas)
        elif p.classification.label == "Muslim":
            max_z["Muslim"] = max(max_z["Muslim"], p.response.z_eid)

    def bucket(z: float, top: float) -> int:
        if top <= 0.0:
            return _BUCKETS
        k = int(-(-_BUCKETS * z // top))  # ceil for positive z
        return min(max(k, 1), _BUCKETS)

    rows = []
    seen = set()
    for p in profiles:
        seen.add(p.code)
        label = p.classification.label
        if label == "Christian":
            z = p.response.z_christmas
            rows.append((p.code, "christmas", repr(z), f"red-{bucket(z, max_z['Christian'])}"))
        elif label == "Muslim":
            z = p.response.z_eid
            rows.append((p.code, "eid-al-fitr", repr(z), f"green-{bucket(z, max_z['Muslim'])}"))
        else:
            rows.append((p.code, "none", "", "white"))
    for code in all_codes or []:
        if code not in seen:
            rows.append((code, "none", "", "dark-grey"))
    rows.sort(key=lambda r: r[0])
    return rows
