"""The METAPREP pipeline: configuration, driver, partition output, reports."""
