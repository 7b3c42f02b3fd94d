"""The python -m repro command-line entry."""

from repro.__main__ import main


class TestDispatch:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICPP 2018" in out

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "calibrate" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "KNL" in out and "Skylake" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Flat:AVX512" in capsys.readouterr().out

    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_command_fails_with_guidance(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig8" in err
