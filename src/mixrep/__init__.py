"""Distance-based recognition with per-class mixture representatives.

The embedding network and the representatives train jointly against a
distance posterior; held-out classes are then handled episodically from a
handful of examples, with an explicit background posterior for open-set
rejection."""

__version__ = "0.1.0"
