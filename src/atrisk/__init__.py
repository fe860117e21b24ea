"""Early-warning pipeline for at-risk students in paid online courses."""
