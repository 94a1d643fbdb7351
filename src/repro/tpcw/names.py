"""Deterministic data generators for the TPC-W population.

TPC-W specifies synthetic alphanumeric fields; exact string contents do
not affect queueing behaviour, so we generate readable pseudo-random
values from seeded streams instead of the spec's digit-substitution
tables.
"""

from __future__ import annotations

from typing import List

from repro.util.rng import RandomStream

#: The 24 item subjects from the TPC-W specification.
SUBJECTS: List[str] = [
    "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
    "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
    "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
    "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
    "YOUTH", "TRAVEL",
]

_FIRST_NAMES = [
    "James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
    "Linda", "William", "Elizabeth", "David", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Eli",
    "Chuan", "Haining", "Grace", "Henry", "Irene", "Victor", "Wendy",
]

_LAST_NAMES = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
    "Courtwright", "Yue", "Wang", "Nguyen", "Kim", "Patel", "Ivanov",
]

_TITLE_WORDS = [
    "Secret", "Journey", "Shadow", "River", "Garden", "Winter", "Summer",
    "Empire", "Dream", "Silent", "Golden", "Broken", "Lost", "Hidden",
    "Ancient", "Modern", "Digital", "Quantum", "Crimson", "Emerald",
    "Forgotten", "Eternal", "Distant", "Burning", "Frozen", "Wandering",
    "Last", "First", "Final", "Midnight", "Morning", "Stolen", "Sacred",
]

_CITY_NAMES = [
    "Williamsburg", "Springfield", "Riverton", "Lakeside", "Fairview",
    "Georgetown", "Madison", "Clinton", "Arlington", "Salem", "Bristol",
    "Dover", "Hudson", "Milton", "Newport", "Oxford", "Ashland", "Burlington",
]

_STREET_SUFFIXES = ["St", "Ave", "Blvd", "Ln", "Rd", "Dr", "Ct", "Way"]

_COUNTRIES = [
    ("United States", "Dollars", 1.0),
    ("United Kingdom", "Pounds", 0.61),
    ("Canada", "Dollars", 1.01),
    ("Germany", "Euros", 0.73),
    ("France", "Euros", 0.73),
    ("Japan", "Yen", 92.1),
    ("Netherlands", "Euros", 0.73),
    ("Italy", "Euros", 0.73),
    ("Switzerland", "Francs", 1.05),
    ("Australia", "Dollars", 1.46),
]


def first_name(rng: RandomStream) -> str:
    return rng.choice(_FIRST_NAMES)


def last_name(rng: RandomStream) -> str:
    return rng.choice(_LAST_NAMES)


def author_last_name(index: int) -> str:
    """Deterministic author surname so searches can target real data."""
    return _LAST_NAMES[index % len(_LAST_NAMES)]


def book_title(rng: RandomStream) -> str:
    words = rng.sample(_TITLE_WORDS, rng.randint(2, 4))
    return "The " + " ".join(words)


def user_name(customer_id: int) -> str:
    """TPC-W derives the user name from the customer id."""
    return f"user{customer_id}"


def password(customer_id: int) -> str:
    return f"pw{customer_id}"


def email(customer_id: int) -> str:
    return f"user{customer_id}@example.com"


def street(rng: RandomStream) -> str:
    return (
        f"{rng.randint(1, 9999)} "
        f"{rng.choice(_TITLE_WORDS)} {rng.choice(_STREET_SUFFIXES)}"
    )

def city(rng: RandomStream) -> str:
    return rng.choice(_CITY_NAMES)


def zip_code(rng: RandomStream) -> str:
    return f"{rng.randint(10000, 99999)}"


def phone(rng: RandomStream) -> str:
    return f"{rng.randint(100, 999)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"


def isbn(item_id: int) -> str:
    return f"ISBN{item_id:09d}"


def credit_card_number(rng: RandomStream) -> str:
    return "".join(str(rng.randint(0, 9)) for _ in range(16))


def paragraph(rng: RandomStream, sentences: int = 3) -> str:
    parts = []
    for _ in range(sentences):
        words = [rng.choice(_TITLE_WORDS).lower() for _ in range(rng.randint(6, 12))]
        words[0] = words[0].capitalize()
        parts.append(" ".join(words) + ".")
    return " ".join(parts)


def date_string(rng: RandomStream, start_year: int = 1990,
                end_year: int = 2008) -> str:
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def countries() -> List[tuple]:
    """(name, currency, exchange-rate) rows for the country table."""
    return list(_COUNTRIES)


def subject_for(index: int) -> str:
    return SUBJECTS[index % len(SUBJECTS)]
