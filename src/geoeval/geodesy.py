"""Coordinates and great-circle distances on a spherical Earth.

Every geocoding error in the evaluation suite is a distance produced by
this module, so the model is deliberately simple: a sphere of mean radius
6371.0088 km and the haversine formula. The ellipsoidal correction is
below 0.5% and immaterial at the 161 km tolerances used downstream.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

# IUGG mean Earth radius, km.
EARTH_RADIUS_KM = 6371.0088

# Half of Earth's equatorial circumference: the worst possible geocoding
# error, used to normalise error-curve metrics.
MAX_ERROR_KM = 20039.0

# Largest value great_circle_distance can return (antipodal points).
MAX_DISTANCE_KM = math.pi * EARTH_RADIUS_KM


@dataclass(frozen=True)
class Coordinate:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"coordinate must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            # Rejected rather than wrapped so broken input surfaces early.
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def ascii_number(text: str) -> str:
    """`text`, when it holds no "_" and no character outside ASCII; ValueError otherwise.

    int() and float() also read "_" between digits and any Unicode decimal
    digit, such as "٥": a number in geoeval's inputs is written in ASCII
    digits alone, so each is checked here before it is converted.
    """
    if text.isascii() and "_" not in text:
        return text
    raise ValueError(f"not a number in ASCII digits: {reprlib.repr(text)}")


def ascii_float(text: str) -> float:
    """float(ascii_number(text)); a refusal quotes `text` through reprlib.repr, not whole as float() does."""
    number = ascii_number(text)
    try:
        return float(number)
    except ValueError:
        raise ValueError(f"could not convert string to float: {reprlib.repr(text)}") from None


def great_circle_distance(a: Coordinate, b: Coordinate) -> float:
    """Haversine distance between two coordinates, in km.

    Symmetric, zero for identical points, and bounded by MAX_DISTANCE_KM.
    """
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
