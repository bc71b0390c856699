"""Seeded benchmark inputs: a course catalog CSV and a ``.txt`` corpus.

The program under test receives only the files written here.  Every size
is fixed by the caller, so two seeds give inputs of the same shape (same
course count, same document and word counts, hence the same number of BM25
windows) and differ only in their words.
"""

from __future__ import annotations

import csv
import os
import random

# A fixed vocabulary of academic words.  It deliberately overlaps the words
# the simulated teacher writes into questions, so BM25 scores real matches
# instead of mostly empty postings.
VOCABULARY = tuple(dict.fromkeys(
    """
    gradient harbor lattice orbit catalyst ledger matrix enzyme treaty isotope
    tariff sonnet glacier neuron quorum vector plasma syntax kernel fresco
    estuary magma pigment fulcrum osmosis pendulum quasar riddle saline tendon
    umbra vertex wavelet xylem yield zenith alloy basalt cipher dynamo ember
    flora genome helix inertia joule krypton lumen meridian nebula oracle prism
    quartz rotor spore torque uplift valence wattage xenon yarrow zephyr archive
    buoyancy analysis theory method evidence structure function system process
    model energy market policy culture history society language number pattern
    signal memory network protein cell organism climate river ocean mountain
    planet star galaxy atom molecule reaction bond acid base salt metal crystal
    force motion wave light sound heat pressure volume density mass charge field
    current circuit voltage resistance logic proof theorem equation function
    limit series integral derivative probability statistics sample variance
    estimate inference hypothesis experiment observation measurement error bias
    ethics justice law contract property trade labor capital price demand supply
    inflation budget account asset liability revenue profit audit tax finance
    empire republic revolution treaty colony migration religion ritual myth
    text author reader poem novel drama rhetoric argument claim premise virtue
    mind behavior emotion perception learning development identity gender class
    community institution government election party state nation border region
    farm soil crop harvest food nutrition health disease diet hygiene anatomy
    bone muscle nerve organ tissue blood heart lung brain skin gene trait
    species ecosystem habitat population resource pollution sustainability
    design software algorithm data database interface protocol security code
    compiler memory storage processor program network enterprise venture
    strategy brand consumer campaign management leadership team decision risk
    """.split()
))

# Titles draw from a smaller list of headline words plus a course number,
# which keeps every (subject, title) pair unique.
TITLE_WORDS = tuple(
    """
    Foundations Principles Methods Topics Perspectives Introduction Advanced
    Applied Comparative Contemporary Historical Quantitative Theoretical
    Practical Modern Classical Global Critical Experimental Computational
    """.split()
)


def pick_subjects(count: int) -> list[str]:
    """``count`` subjects spread evenly over corgi's 45 reference subjects."""
    from corgi.catalog import REFERENCE_SUBJECTS

    names = [subject for subject, _source in REFERENCE_SUBJECTS]
    if not 1 <= count <= len(names):
        raise ValueError(f"subject count must be in 1..{len(names)}, got {count}")
    return [names[i * len(names) // count] for i in range(count)]


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(n)]


def write_catalog(path: str, seed: int, subjects: int, courses_per_subject: int) -> None:
    """Write ``subjects x courses_per_subject`` courses."""
    rng = random.Random(f"catalog/{seed}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject", "course_title", "course_description", "source"])
        for subject in pick_subjects(subjects):
            for k in range(courses_per_subject):
                head = rng.choice(TITLE_WORDS)
                topic = rng.choice(VOCABULARY).capitalize()
                title = f"{head} {topic} {101 + k}"
                words = rng.choices(VOCABULARY, k=24)
                description = (
                    f"A course on {words[0]} and {words[1]}: "
                    + " ".join(words[2:])
                    + "."
                )
                writer.writerow([subject, title, description, "bench-catalog"])


def write_corpus(directory: str, seed: int, docs: int, words_per_doc: int) -> None:
    """Write ``docs`` text files of ``words_per_doc`` words each."""
    rng = random.Random(f"corpus/{seed}")
    os.makedirs(directory, exist_ok=True)
    vocab = list(VOCABULARY)
    rng.shuffle(vocab)
    weights = _zipf_weights(len(vocab))
    for d in range(docs):
        words = rng.choices(vocab, weights=weights, k=words_per_doc)
        lines = [" ".join(words[i : i + 16]) for i in range(0, len(words), 16)]
        with open(os.path.join(directory, f"doc-{d:03d}.txt"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def write_inputs(
    out_dir: str,
    seed: int,
    subjects: int,
    courses_per_subject: int,
    docs: int,
    words_per_doc: int,
) -> tuple[str, str]:
    """Write ``catalog.csv`` and ``corpus/`` under ``out_dir``; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    catalog = os.path.join(out_dir, "catalog.csv")
    corpus = os.path.join(out_dir, "corpus")
    write_catalog(catalog, seed, subjects, courses_per_subject)
    write_corpus(corpus, seed, docs, words_per_doc)
    return catalog, corpus

