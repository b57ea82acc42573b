"""The comment line that opens every output file with its configuration."""


def config_header(config: dict | None) -> str:
    """``# config: k=v ...`` with sorted keys and a newline; "" for no config."""
    if not config:
        return ""
    return "# config: " + " ".join(f"{k}={config[k]}" for k in sorted(config)) + "\n"
