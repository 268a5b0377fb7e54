"""The standard normal CDF from the standard library, so the tests need NumPy alone."""

import math


def ndtr(x: float) -> float:
    """Phi(x) = P(Z <= x) for a standard normal Z."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
