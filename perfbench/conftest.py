def pytest_configure(config):
    config.addinivalue_line("markers", "bench: smoke tests of the benchmark harness")
