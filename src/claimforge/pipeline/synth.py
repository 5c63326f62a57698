"""Seeded synthetic patent corpus with domain-distinctive vocabulary."""

from __future__ import annotations

from dataclasses import dataclass

from claimforge.numerics import Rng
from claimforge.generator.adapters import DOMAINS
from claimforge.pipeline.corpus import CorpusRecord
from claimforge.similarity.heads import RELATIONSHIP_ORDER
from claimforge.textcore import tokenize

# disjoint by construction, so pairwise overlap is far below the 20% bound
DOMAIN_POOLS: dict[str, list[str]] = {
    "mechanical": [
        "gear", "shaft", "bearing", "piston", "valve", "spring", "lever", "pulley",
        "flange", "camshaft", "gearbox", "crank", "clutch", "sprocket", "linkage",
        "housing", "bracket", "fastener", "hinge", "roller", "damper", "coupling",
        "actuator", "cylinder", "ratchet",
    ],
    "electrical": [
        "capacitor", "resistor", "inductor", "transformer", "diode", "transistor",
        "rectifier", "oscillator", "amplifier", "voltage", "current", "impedance",
        "relay", "fuse", "conductor", "insulator", "solenoid", "busbar", "rheostat",
        "thyristor", "varistor", "electrode", "winding", "filament", "terminal",
    ],
    "software": [
        "algorithm", "database", "compiler", "processor", "thread", "cache",
        "protocol", "encryption", "middleware", "scheduler", "queue", "parser",
        "kernel", "runtime", "bytecode", "heuristic", "checksum", "firmware",
        "latency", "bandwidth", "hash", "token", "packet", "buffer", "registry",
    ],
    "chemical": [
        "polymer", "catalyst", "solvent", "reagent", "monomer", "distillation",
        "titration", "oxidation", "hydrolysis", "ester", "alkane", "benzene",
        "chloride", "sulfate", "nitrate", "acid", "alkali", "emulsion", "slurry",
        "precipitate", "electrolysis", "isomer", "copolymer", "surfactant", "resin",
    ],
    "biotech": [
        "enzyme", "antibody", "plasmid", "genome", "protein", "peptide", "vector",
        "nucleotide", "chromosome", "ligase", "polymerase", "antigen", "culture",
        "assay", "sequencing", "mutation", "receptor", "cytokine", "vaccine",
        "microbe", "substrate", "fermentation", "clone", "strain", "ribosome",
    ],
}

# marker words making relationship labels recoverable from pair text
RELATION_MARKERS: dict[str, list[str]] = {
    "equivalence": ["identical", "equivalent", "same", "matching"],
    "improvement": ["improved", "enhanced", "superior", "optimized"],
    "contradiction": ["contrary", "opposite", "incompatible", "conflicting"],
    "technical": ["related", "adjacent", "associated", "auxiliary"],
}

@dataclass
class SynthCorpus:
    records: list[CorpusRecord]
    prior_art: list[CorpusRecord]


def _pick(rng: Rng, pool: list[str]) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def _sentence(rng: Rng, pool: list[str]) -> str:
    a, b, c = _pick(rng, pool), _pick(rng, pool), _pick(rng, pool)
    forms = [
        f"The {a} is connected to the {b} through the {c}.",
        f"A {a} drives the {b} while the {c} remains engaged.",
        f"Each {a} comprises a {b} coupled to a {c}.",
        f"The {a} assembly controls the {b} via the {c}.",
    ]
    return forms[int(rng.integers(0, len(forms)))]


def _corrupt(tokens: list[str], rng: Rng) -> list[str]:
    # each token is dropped with probability 0.2
    kept = [t for t in tokens if rng.uniform(()) >= 0.2]
    if not kept:
        kept = tokens[:1]
    rng.shuffle(kept)
    return kept


def _make_record(doc_id: str, domain: str, rng: Rng) -> CorpusRecord:
    pool = DOMAIN_POOLS[domain]
    figure_count = int(rng.integers(1, 4))
    num_claims = int(rng.integers(2, 5))

    paragraphs = []
    for _ in range(int(rng.integers(2, 4))):
        paragraphs.append(" ".join(_sentence(rng, pool) for _ in range(int(rng.integers(2, 4)))))
    fig_sent = " ".join(f"FIG. {i + 1} shows the {_pick(rng, pool)}." for i in range(figure_count))
    description = "\n\n".join(paragraphs + [fig_sent])

    claims = []
    noun = _pick(rng, pool)
    claims.append(f"1. A {noun} comprising a {_pick(rng, pool)} and a {_pick(rng, pool)}.")
    for i in range(2, num_claims + 1):
        # dependent claims reference claim 1
        claims.append(
            f"{i}. The {noun} of claim 1, wherein the {_pick(rng, pool)} "
            f"includes a {_pick(rng, pool)}."
        )

    relationship_pairs = []
    for label in RELATIONSHIP_ORDER:
        marker = _pick(rng, RELATION_MARKERS[label])
        claim_text = f"A {_pick(rng, pool)} comprising a {_pick(rng, pool)}."
        doc_text = f"The {marker} {_pick(rng, pool)} provides a {marker} {_pick(rng, pool)}."
        relationship_pairs.append(
            {"claim_text": claim_text, "doc_text": doc_text, "label": label}
        )

    corruption_tuples = []
    for claim in claims[:2]:
        ref_tokens = tokenize(claim)
        worse = _corrupt(ref_tokens, rng)
        corruption_tuples.append({
            "reference": claim,
            "better": " ".join(ref_tokens),
            "worse": " ".join(worse),
        })

    return CorpusRecord(
        id=doc_id,
        description=description,
        claims=claims,
        domain=domain,
        figure_count=figure_count,
        relationship_pairs=relationship_pairs,
        corruption_tuples=corruption_tuples,
    )


def synth_corpus(seed: int, size: int, domains: int = 5) -> SynthCorpus:
    """Template-generated patent-like corpus, with one prior-art record per
    domain; fully deterministic per seed."""
    if size < 15:
        raise ValueError(f"size {size} too small: need at least 15 (3 per domain)")
    if not (1 <= domains <= len(DOMAINS)):
        raise ValueError(f"domains must be in 1..{len(DOMAINS)}")
    active = DOMAINS[:domains]
    rng = Rng(seed, ("corpus",))
    records = []
    base, rem = divmod(size, len(active))
    idx = 0
    for d, domain in enumerate(active):
        count = base + (1 if d < rem else 0)
        for _ in range(count):
            records.append(_make_record(f"doc{idx:04d}", domain, rng.substream(f"rec{idx}")))
            idx += 1
    prior_art = [_make_record(f"prior{d}00", domain, rng.substream(f"prior{d}-0"))
                 for d, domain in enumerate(active)]
    return SynthCorpus(records=records, prior_art=prior_art)
