"""Bresenham circle of radius 3: the FAST-16 sampling pattern.

"The FAST corner detection algorithm compares a pixel with its
surrounding 16 pixels on a Bresenham circle of radius 3."  The offsets
below are the standard 16-point pattern in clockwise order starting from
the top, as (row, col) displacements.
"""

import numpy as np

#: The 16 (d_row, d_col) offsets of the radius-3 Bresenham circle,
#: clockwise from 12 o'clock.
CIRCLE_OFFSETS_R3 = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3),
    (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3),
    (0, -3), (-1, -3), (-2, -2), (-3, -1),
)


def circle_intensities(image, row, col):
    """The 16 circle-pixel intensities around ``(row, col)``.

    The caller must keep a 3-pixel border margin; out-of-range access
    raises ``IndexError`` like any other out-of-bounds numpy access.
    """
    image = np.asarray(image)
    return np.array([image[row + dr, col + dc]
                     for dr, dc in CIRCLE_OFFSETS_R3], dtype=float)


def interior_pixels(image):
    """Iterate (row, col) of every pixel with the full circle in range."""
    for row, col in interior_pixel_array(image).tolist():
        yield row, col


def interior_pixel_array(image):
    """:func:`interior_pixels` as one ``(count, 2)`` array, row-major."""
    height, width = np.asarray(image).shape
    rows = np.arange(3, height - 3)
    cols = np.arange(3, width - 3)
    return np.stack([np.repeat(rows, len(cols)), np.tile(cols, len(rows))],
                    axis=1)
