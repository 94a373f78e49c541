"""pytest plugin that runs the collected tests in reverse order, so that a
test that passes only after others have run fails: with tools/ on the path,
    python -m pytest -p reverse_order
"""


def pytest_collection_modifyitems(items):
    items.reverse()
