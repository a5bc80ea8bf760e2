"""Policy atoms (paper Section 5.1.5, reference [21]; extension experiment).

Afek et al. define a *policy atom* as a maximal group of prefixes that share
the same AS path at every backbone vantage point.  The paper remarks that
its export-policy findings explain what creates atoms: origin ASes' routing
policies (notably selective announcement) determine which prefixes travel
together.  This module implements atom computation over the collector table
and measures how SA prefixes distribute across atoms, as an extension of the
paper's discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.collector import CollectorTable


@dataclass
class PolicyAtom:
    """One policy atom: prefixes indistinguishable by their path vectors.

    Attributes:
        signature: the (vantage AS, AS path) vector shared by the prefixes,
            each path as its ASN tuple, vantages ascending.
        prefixes: the member prefixes.
        origin_ases: the origin ASes of the member prefixes.
    """

    signature: tuple[tuple[ASN, tuple[ASN, ...]], ...]
    prefixes: list[Prefix] = field(default_factory=list)
    origin_ases: set[ASN] = field(default_factory=set)

    @property
    def size(self) -> int:
        """Number of prefixes in the atom."""
        return len(self.prefixes)


@dataclass
class AtomStatistics:
    """Summary of an atom decomposition.

    Attributes:
        atom_count: number of atoms.
        prefix_count: number of prefixes covered.
        single_prefix_atoms: atoms containing exactly one prefix.
        largest_atom_size: size of the largest atom.
        atoms_with_sa_prefixes: atoms containing at least one SA prefix
            (only populated when SA prefixes are supplied).
        single_origin_atoms: atoms whose prefixes all share one origin AS.
    """

    atom_count: int = 0
    prefix_count: int = 0
    single_prefix_atoms: int = 0
    largest_atom_size: int = 0
    atoms_with_sa_prefixes: int = 0
    single_origin_atoms: int = 0

    @property
    def average_atom_size(self) -> float:
        """Mean number of prefixes per atom."""
        if self.atom_count == 0:
            return 0.0
        return self.prefix_count / self.atom_count


class PolicyAtomAnalyzer:
    """Computes policy atoms from a collector table."""

    def compute_atoms(self, collector: CollectorTable) -> list[PolicyAtom]:
        """Group prefixes by their (vantage, AS path) vector."""
        vectors: dict[Prefix, dict[ASN, tuple[ASN, ...]]] = {}
        for entry in collector.entries:
            vectors.setdefault(entry.prefix, {})[entry.vantage] = entry.as_path.asns
        atoms: dict[tuple[tuple[ASN, tuple[ASN, ...]], ...], PolicyAtom] = {}
        for prefix, by_vantage in vectors.items():
            signature = tuple(sorted(by_vantage.items()))
            atom = atoms.get(signature)
            if atom is None:
                atom = PolicyAtom(signature=signature)
                atoms[signature] = atom
            atom.prefixes.append(prefix)
            if by_vantage:
                atom.origin_ases.add(next(iter(by_vantage.values()))[-1])
        result = list(atoms.values())
        result.sort(key=lambda atom: atom.size, reverse=True)
        return result

    def statistics(
        self, atoms: list[PolicyAtom], sa_prefixes: set[Prefix] | None = None
    ) -> AtomStatistics:
        """Summarise an atom decomposition (optionally against a set of SA prefixes)."""
        stats = AtomStatistics(atom_count=len(atoms))
        for atom in atoms:
            stats.prefix_count += atom.size
            stats.largest_atom_size = max(stats.largest_atom_size, atom.size)
            if atom.size == 1:
                stats.single_prefix_atoms += 1
            if len(atom.origin_ases) == 1:
                stats.single_origin_atoms += 1
            if sa_prefixes and any(prefix in sa_prefixes for prefix in atom.prefixes):
                stats.atoms_with_sa_prefixes += 1
        return stats
