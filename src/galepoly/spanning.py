"""Positively k-spanning vector configurations.

A configuration is an ordered, labeled list of vectors in R^m.  It is
positively k-spanning when deleting any k-1 vectors leaves a set whose
nonnegative combinations fill R^m, and minimally so when no single vector
can be dropped without losing that property.  Both predicates are decided
by one exhaustive deletion scan over the exact LP core (``_check_removal``,
run with nothing or one vector removed), and every verdict is
backed by a certificate for its witness case; a minimal verdict records
each removal's least witness deletion.  These scans serve bare
configurations.  The Gale dual of a certificate-mode build is proved
minimal 2-spanning without them, from the build's own certificates
(``mani.dual_spanning_report``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import BadParametersError
from .linalg import QQ, LabelledRows, common_scale
from .lp import DependenceCertificate, positively_spans


@dataclass(frozen=True)
class VectorConfiguration(LabelledRows):
    """Ordered labeled vectors in R^m, checked and stored by the labelled
    row rule (``linalg.LabelledRows``).

    ``integer_coords`` is the integer view of the vectors, computed once
    and kept on the object.  That is derived data, not a field, so
    equality, hashing and repr see only the labels and coordinates.
    """

    m: int
    labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...]

    @functools.cached_property
    def integer_coords(self) -> tuple[tuple[int, ...], ...]:
        """Every vector times one common lcm of all the denominators.

        A factor common to all vectors keeps every coface, sign and
        dependence, and the exact LP takes the same pivots on these rows as
        on ``coords``, so each certificate is the one ``coords`` give.
        """
        return common_scale(self.coords)

    def pairs(self) -> tuple[tuple[str, tuple[Fraction, ...]], ...]:
        return tuple(zip(self.labels, self.coords))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadParametersError(f"no vector labeled {label!r}") from None

    def subconfiguration(self, indices: Iterable[int]) -> "VectorConfiguration":
        idx = tuple(sorted(set(indices)))
        for i in idx:
            if not 0 <= i < len(self):
                raise BadParametersError(f"index {i} out of range")
        return VectorConfiguration(
            m=self.m,
            labels=tuple(self.labels[i] for i in idx),
            coords=tuple(self.coords[i] for i in idx),
        )


@dataclass(frozen=True)
class SpanningReport:
    """Verdict of a k-spanning scan with its first failing deletion, if any.

    ``witness_deletion`` is the lexicographically least (k-1)-subset whose
    removal breaks positive spanning; ``certificate`` proves that failure.
    Both are None on a positive verdict, which instead keeps in
    ``certificates`` the ``PositiveDependence`` of each deletion, in scan
    order (``gale.realize_with_proofs`` returns them).  They prove the verdict and do
    not enter comparisons.
    """

    spanning: bool
    k: int
    witness_deletion: tuple[int, ...] | None = None
    certificate: DependenceCertificate | None = None
    certificates: tuple[DependenceCertificate, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class MinimalityReport:
    """Verdict of the single-deletion minimality scan.

    On a non-minimal verdict ``removable_index`` is the least index whose
    removal keeps the configuration positively k-spanning (None when the
    configuration is not k-spanning at all).  On a minimal
    verdict ``per_index`` records, for each removed index, the witness
    deletion (as labels of the original configuration) and certificate kind
    that break k-spanning after the removal.
    """

    minimal: bool
    k: int
    removable_index: int | None = None
    per_index: tuple[tuple[str, tuple[str, ...], str], ...] = ()


def _check_removal(config: VectorConfiguration, k: int, removed: tuple[int, ...], memo: dict):
    """The k-spanning scan of ``config`` without the vectors in ``removed``.

    The (k-1)-deletions run in lexicographic order, as positions among the
    other vectors; the witness deletion is given in those positions.
    Deleting k-1 of fewer than k-1 vectors is impossible, so too few
    vectors fail vacuously with a maximal witness deletion.  Each LP is
    keyed in ``memo`` by the original indices it removes: the scans of two
    removals meet on the same selection of the same vectors in the same
    order, so a hit is that LP's own ``(ok, cert)``.
    """
    rest = [j for j in range(len(config)) if j not in removed]
    if k - 1 >= len(rest):
        cert = DependenceCertificate(
            "RankDeficiency",
            direction=tuple(QQ(1) if i == 0 else QQ(0) for i in range(config.m)),
        )
        return SpanningReport(False, k, witness_deletion=tuple(range(len(rest))), certificate=cert)
    proofs = []
    for deletion in itertools.combinations(range(len(rest)), k - 1):
        gone = frozenset([*removed, *(rest[t] for t in deletion)])
        hit = memo.get(gone)
        if hit is None:
            hit = memo[gone] = positively_spans(config.coords, [j for j in rest if j not in gone])
        ok, cert = hit
        if not ok:
            return SpanningReport(False, k, witness_deletion=deletion, certificate=cert)
        proofs.append(cert)
    return SpanningReport(True, k, certificates=tuple(proofs))


def is_positively_k_spanning(config: VectorConfiguration, k: int) -> SpanningReport:
    """Scan all (k-1)-deletions; report the least failing one, if any.

    This is the deletion scan with nothing removed (``_check_removal``), so
    configurations with n <= k-1 fail vacuously with a maximal witness
    deletion.
    """
    if k < 1:
        raise BadParametersError("k must be at least 1")
    if config.m < 1:
        raise BadParametersError("ambient dimension must be at least 1")
    return _check_removal(config, k, (), {})


def removal_scan(config: VectorConfiguration, k: int) -> MinimalityReport:
    """The single-removal scan of a positively k-spanning configuration.

    Every removal must leave a configuration that is not k-spanning; the
    scan searches each removal for its least witness deletion.  The removal
    scans share one memo of their LPs, so each set of removed vectors is
    solved once.
    """
    n = len(config)
    per_index = []
    memo: dict = {}
    for index in range(n):
        report = _check_removal(config, k, (index,), memo)
        if report.spanning:
            return MinimalityReport(False, k, removable_index=index)
        rest = [j for j in range(n) if j != index]
        witness_labels = tuple(config.labels[rest[t]] for t in report.witness_deletion)
        per_index.append((config.labels[index], witness_labels, report.certificate.kind))
    return MinimalityReport(True, k, per_index=tuple(per_index))


def is_minimal_k_spanning(
    config: VectorConfiguration, k: int
) -> tuple[SpanningReport, MinimalityReport]:
    """Check k-spanning, then that every single removal destroys it.

    Returns the base spanning report plus the minimality report of
    ``removal_scan``; minimality is vacuously false when the configuration
    is not k-spanning at all.
    """
    base = is_positively_k_spanning(config, k)
    if not base.spanning:
        return base, MinimalityReport(False, k)
    return base, removal_scan(config, k)


def standard_minimal_config(m: int, k: int) -> VectorConfiguration:
    """k copies of each of +-e_1 ... +-e_m: the classical 2km-size instance.

    Labels read ``+e1.1`` for the first copy of e_1, ``-e1.1`` for the first
    copy of -e_1, and so on.
    """
    if m < 1 or k < 1:
        raise BadParametersError("m and k must be at least 1")
    pairs = []
    for i in range(1, m + 1):
        for sign, s in ((1, "+"), (-1, "-")):
            for copy in range(1, k + 1):
                v = [QQ(0)] * m
                v[i - 1] = QQ(sign)
                pairs.append((f"{s}e{i}.{copy}", v))
    return VectorConfiguration.from_pairs(m, pairs)
