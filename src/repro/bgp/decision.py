"""The BGP best-route decision process (paper Section 2.2.1).

The paper lists the sequential criteria a BGP router applies to pick the best
route for a prefix:

1. highest LOCAL_PREF,
2. shortest AS path,
3. lowest ORIGIN,
4. smallest MED (compared between routes with the same next-hop AS),
5. eBGP preferred over iBGP,
6. smallest IGP metric to the egress router,
7. smallest router ID.

:class:`DecisionProcess` implements that order and reports *which* step
decided the comparison — the import-policy inference (Section 4) needs to
know whether LOCAL_PREF or a later tie-breaker picked the winner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.bgp.route import Route, RouteSource
from repro.exceptions import PolicyError


class DecisionStep(enum.IntEnum):
    """The decision-process step that determined a comparison."""

    LOCAL_PREF = 1
    AS_PATH_LENGTH = 2
    ORIGIN = 3
    MED = 4
    EBGP_OVER_IBGP = 5
    IGP_METRIC = 6
    ROUTER_ID = 7
    TIE = 8


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two routes.

    Attributes:
        winner: the preferred route (``None`` for a complete tie).
        step: the decision step that broke the tie.
    """

    winner: Route | None
    step: DecisionStep


class DecisionProcess:
    """The sequential BGP route-selection procedure.

    Args:
        compare_med_only_same_neighbor: when ``True`` (the default, matching
            the paper and Cisco behaviour without ``always-compare-med``),
            MED is only compared between routes learned from the same
            next-hop AS.
    """

    def __init__(self, compare_med_only_same_neighbor: bool = True) -> None:
        self.compare_med_only_same_neighbor = compare_med_only_same_neighbor

    # -- pairwise comparison -----------------------------------------------

    def compare(self, left: Route, right: Route) -> Comparison:
        """Compare two routes to the same prefix and report the deciding step."""
        if left.prefix != right.prefix:
            raise PolicyError(
                f"cannot compare routes to different prefixes: "
                f"{left.prefix} vs {right.prefix}"
            )
        # Step 1: highest LOCAL_PREF.
        if left.local_pref != right.local_pref:
            winner = left if left.local_pref > right.local_pref else right
            return Comparison(winner, DecisionStep.LOCAL_PREF)
        # Step 2: shortest AS path.
        if len(left.as_path) != len(right.as_path):
            winner = left if len(left.as_path) < len(right.as_path) else right
            return Comparison(winner, DecisionStep.AS_PATH_LENGTH)
        # Step 3: lowest origin type.
        if left.origin != right.origin:
            winner = left if left.origin < right.origin else right
            return Comparison(winner, DecisionStep.ORIGIN)
        # Step 4: smallest MED, only between routes from the same next-hop AS.
        med_comparable = (
            not self.compare_med_only_same_neighbor
            or left.next_hop_as == right.next_hop_as
        )
        if med_comparable and left.med != right.med:
            winner = left if left.med < right.med else right
            return Comparison(winner, DecisionStep.MED)
        # Step 5: eBGP over iBGP.
        left_ebgp = left.source is not RouteSource.IBGP
        right_ebgp = right.source is not RouteSource.IBGP
        if left_ebgp != right_ebgp:
            winner = left if left_ebgp else right
            return Comparison(winner, DecisionStep.EBGP_OVER_IBGP)
        # Step 6: smallest IGP metric to the egress router.
        if left.igp_metric != right.igp_metric:
            winner = left if left.igp_metric < right.igp_metric else right
            return Comparison(winner, DecisionStep.IGP_METRIC)
        # Step 7: smallest router ID.
        if left.router_id != right.router_id:
            winner = left if left.router_id < right.router_id else right
            return Comparison(winner, DecisionStep.ROUTER_ID)
        return Comparison(None, DecisionStep.TIE)

    # -- best-route selection -----------------------------------------------------

    def select_best(self, routes: Sequence[Route] | Iterable[Route]) -> Route | None:
        """Return the best route among ``routes`` (``None`` if empty).

        Later routes only displace the current best when strictly preferred,
        which makes the selection deterministic for a given input order and
        mirrors router behaviour where the incumbent best route is retained
        on a complete tie.
        """
        best: Route | None = None
        for route in routes:
            if best is None:
                best = route
                continue
            comparison = self.compare(best, route)
            if comparison.winner is route:
                best = route
        return best
