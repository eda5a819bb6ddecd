"""Seeded Pushshift-style dump generator for the benchmark workloads.

Standard library only, and independent of the ``forumpulse`` package, so
that the same seed yields the same bytes whichever commit is measured; a
change to ``forumpulse fixture`` cannot change what the benchmark feeds
the program.

Every post draws its words from one of ``k_true`` disjoint word pools.
Comments form shallow reply trees. About 1% of comments come from a
sentinel author and about 0.5% reply to a comment that is not in the dump,
as real dumps do; neither makes a line malformed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOLS = (
    ("loan", "lender", "borrow", "principal", "rate", "refinance", "cosigner",
     "payoff", "credit", "debt", "interest", "balance", "bill", "payment",
     "minimum", "statement", "overdue", "collector", "bureau", "score",
     "installment", "apr"),
    ("car", "vehicle", "truck", "engine", "motor", "tire", "brake", "gas",
     "dealer", "lease", "mileage", "warranty", "sedan", "garage", "repair",
     "collision", "deductible", "premium", "highway", "odometer", "trade",
     "registration"),
    ("invest", "stock", "portfolio", "dividend", "broker", "etf", "bond",
     "equity", "index", "fund", "shares", "roth", "ira", "yield", "market",
     "allocation", "rebalance", "compound", "growth", "options", "brokerage",
     "ticker"),
    ("house", "home", "rent", "mortgage", "apartment", "property", "landlord",
     "tenant", "escrow", "closing", "realtor", "downpayment", "hoa", "roof",
     "kitchen", "plumbing", "appraisal", "neighborhood", "sublet",
     "inspection", "condo", "deed"),
    ("job", "work", "salary", "employer", "career", "office", "manager",
     "wage", "bonus", "promotion", "resume", "interview", "overtime",
     "payroll", "recruiter", "severance", "contract", "freelance", "raise",
     "benefits", "pension", "coworker"),
    ("tax", "irs", "refund", "deduction", "income", "audit", "filing",
     "withholding", "bracket", "exemption", "dependent", "quarterly", "cpa",
     "taxable", "amended", "extension", "penalty", "federal", "gross",
     "preparer", "credits", "w2"),
)
SENTINEL = "[deleted]"
BASE_EPOCH = 1577836800  # 2020-01-01 00:00:00 UTC
YEAR_SECONDS = 365 * 86400
COMMENTS_PER_POST = 3


def generate(seed: int, n_posts: int, n_users: int,
             k_true: int) -> tuple[list[dict], list[dict]]:
    """Return (posts, comments) as JSON-ready records, fully determined by
    the arguments."""
    if not 1 <= k_true <= len(POOLS):
        raise ValueError(f"k_true must be in [1, {len(POOLS)}]")
    rng = random.Random(seed)
    users = [f"u{i:04d}" for i in range(n_users)]

    posts = []
    for i in range(n_posts):
        pool = POOLS[rng.randrange(k_true)]
        words = [pool[rng.randrange(len(pool))]
                 for _ in range(18 + rng.randrange(18))]
        posts.append({
            "id": f"p{i:05d}",
            "author": users[rng.randrange(n_users)],
            "created_utc": BASE_EPOCH + rng.randrange(YEAR_SECONDS),
            "score": 1 if rng.random() < 0.85 else 2 + rng.randrange(60),
            "title": " ".join(words[:6]),
            "selftext": " ".join(words[6:]),
        })

    comments: list[dict] = []
    threads: list[list[dict]] = [[] for _ in range(n_posts)]
    for j in range(n_posts * COMMENTS_PER_POST):
        p = rng.randrange(n_posts)
        post, thread = posts[p], threads[p]
        roll = rng.random()
        if roll < 0.005:
            parent_ref, parent_created = f"t1_gone{j:06d}", post["created_utc"]
        elif thread and roll < 0.4:
            parent = thread[rng.randrange(len(thread))]
            parent_ref, parent_created = "t1_" + parent["id"], parent["created_utc"]
        else:
            parent_ref, parent_created = "t3_" + post["id"], post["created_utc"]
        author = SENTINEL if rng.random() < 0.01 else users[rng.randrange(n_users)]
        pool = POOLS[rng.randrange(k_true)]
        comment = {
            "id": f"c{j:06d}",
            "author": author,
            "created_utc": parent_created + 30 + rng.randrange(86400),
            "score": 1 if rng.random() < 0.75 else 2 + rng.randrange(40),
            "body": " ".join(pool[rng.randrange(len(pool))]
                             for _ in range(4 + rng.randrange(10))),
            "parent_id": parent_ref,
            "link_id": "t3_" + post["id"],
        }
        comments.append(comment)
        thread.append(comment)
    return posts, comments


def write_dump(out_dir: Path, seed: int, n_posts: int, n_users: int,
               k_true: int) -> tuple[Path, Path]:
    posts, comments = generate(seed, n_posts, n_users, k_true)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = out_dir / "posts.jsonl", out_dir / "comments.jsonl"
    for path, records in zip(paths, (posts, comments)):
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return paths

