"""Deterministic synthetic dump generation for desk-scale runs and tests.

Posts are written in topic-pure language: each post draws its words from
exactly one of ``k_true`` disjoint vocabulary pools, so a topic model can
recover the structure at small scale. Comments form shallow reply trees
with plausible timestamps. Output is byte-identical for a given parameter
set.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .errors import UsageError
from .fileio import write_text

# Disjoint word pools; overlap with the demo lexicon is intentional so the
# category-profiling stage produces non-trivial scores on synthetic data.
TOPIC_WORD_POOLS: tuple[tuple[str, ...], ...] = (
    ("credit", "card", "debt", "pay", "bill", "payment", "balance", "interest",
     "limit", "charge", "collection", "statement", "fee", "minimum", "overdue",
     "bureau", "report", "utilization", "installment", "cycle", "issuer", "apr"),
    ("car", "insurance", "vehicle", "lease", "dealer", "mileage", "warranty",
     "truck", "gas", "repair", "premium", "deductible", "collision", "motor",
     "brake", "tire", "odometer", "registration", "traffic", "highway",
     "sedan", "engine"),
    ("invest", "stock", "fund", "account", "retirement", "market", "portfolio",
     "dividend", "broker", "etf", "index", "shares", "bond", "roth", "ira",
     "yield", "trading", "equity", "growth", "compound", "allocation",
     "rebalance"),
    ("house", "home", "rent", "mortgage", "apartment", "landlord", "tenant",
     "escrow", "property", "deed", "closing", "realtor", "downpayment", "hoa",
     "basement", "roof", "kitchen", "garage", "neighborhood", "appraisal",
     "renovation", "plumbing"),
    ("job", "salary", "offer", "employer", "work", "career", "resume",
     "interview", "promotion", "wage", "bonus", "manager", "office", "hire",
     "overtime", "payroll", "workplace", "colleague", "contract", "freelance",
     "severance", "recruiter"),
    ("tax", "irs", "refund", "filing", "deduction", "income", "withholding",
     "audit", "bracket", "exemption", "dependent", "quarterly", "cpa",
     "taxable", "form", "amended", "extension", "penalty", "estimated",
     "federal", "gross", "preparer"),
)

_BASE_EPOCH = 1593561600  # 2020-07-01 00:00:00 UTC
_YEAR_SECONDS = 365 * 86400


def _pool(topic: int) -> tuple[str, ...]:
    if topic < len(TOPIC_WORD_POOLS):
        return TOPIC_WORD_POOLS[topic]
    # Synth pools beyond the curated ones, still disjoint by construction.
    return tuple(f"subject{topic}term{i:02d}" for i in range(22))


def generate_fixture(seed: int, n_posts: int, n_users: int, k_true: int,
                     out_dir: Path) -> tuple[Path, Path]:
    """Write posts.jsonl and comments.jsonl under out_dir, three comments
    per post; return the paths."""
    if min(n_posts, n_users, k_true) < 1:
        raise UsageError("n_posts, n_users and k_true must be positive")
    rng = random.Random(seed)
    users = [f"user{i:04d}" for i in range(n_users)]

    posts = []
    for i in range(n_posts):
        topic = i % k_true
        pool = _pool(topic)
        n_words = 18 + rng.randrange(18)
        words = [pool[rng.randrange(len(pool))] for _ in range(n_words)]
        created = _BASE_EPOCH + rng.randrange(_YEAR_SECONDS)
        posts.append({
            "id": f"p{i:05d}",
            "author": users[rng.randrange(n_users)],
            "created_utc": created,
            "score": 1 if rng.random() < 0.85 else 2 + rng.randrange(60),
            "title": " ".join(words[:6]),
            "selftext": " ".join(words[6:]),
        })

    n_comments = 3 * n_posts
    threads: dict[str, list[dict]] = {p["id"]: [] for p in posts}
    comments = []
    for j in range(n_comments):
        post = posts[rng.randrange(n_posts)]
        thread = threads[post["id"]]
        if thread and rng.random() < 0.4:
            parent = thread[rng.randrange(len(thread))]
            parent_ref = "t1_" + parent["id"]
            parent_created = parent["created_utc"]
        else:
            parent_ref = "t3_" + post["id"]
            parent_created = post["created_utc"]
        pool = _pool(int(post["id"][1:]) % k_true)
        body_words = [pool[rng.randrange(len(pool))] for _ in range(4 + rng.randrange(10))]
        comment = {
            "id": f"c{j:06d}",
            "author": users[rng.randrange(n_users)],
            "created_utc": parent_created + 30 + rng.randrange(86400),
            "score": 1 if rng.random() < 0.75 else 2 + rng.randrange(40),
            "body": " ".join(body_words),
            "parent_id": parent_ref,
            "link_id": "t3_" + post["id"],
        }
        comments.append(comment)
        thread.append(comment)

    posts_path = Path(out_dir) / "posts.jsonl"
    comments_path = Path(out_dir) / "comments.jsonl"
    for path, records in ((posts_path, posts), (comments_path, comments)):
        write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return posts_path, comments_path
