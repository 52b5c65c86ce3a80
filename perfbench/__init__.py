"""Host-time benchmark of the ``repro`` library (entry point: ``run.py``)."""
