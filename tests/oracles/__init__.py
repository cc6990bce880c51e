"""Reference implementations the differential suites compare against.

Nothing under ``src/`` imports or can select these: they are test code.
"""

from tests.oracles.scalar_service import (
    ScalarReferenceService,
    service_class,
)

__all__ = ["ScalarReferenceService", "service_class"]
