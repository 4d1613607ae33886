"""Holiday-centered analysis of weekly interest and sentiment series.

The package re-centers weekly time series on recurring holidays (Christmas,
Eid al-Fitr, the solstices), classifies countries by which holiday their
interest peaks on, scores short texts against affective lexicons, decomposes
weekly sentiment distributions into eigenmoods, and provides the regression
and distance-correlation statistics used to relate mood to search interest.
"""
